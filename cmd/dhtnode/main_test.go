package main

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/udp"
)

// rpcTimeout is the dht package's per-attempt RPC deadline.
const rpcTimeout = 500 * time.Millisecond

// inbox collects the secrets the test's peers' hosts deliver; their
// onSecret hooks run on the peers' loop goroutines.
type inbox struct {
	mu  sync.Mutex
	got [][]byte
}

func (in *inbox) onSecret(_ protocol.MissionID, secret []byte) {
	in.mu.Lock()
	in.got = append(in.got, bytes.Clone(secret))
	in.mu.Unlock()
}

func (in *inbox) has(secret []byte) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, s := range in.got {
		if bytes.Equal(s, secret) {
			return true
		}
	}
	return false
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// startPeer starts a peer whose delivered secrets land in in (nil: none is
// watched), sending through wrap (nil: the bare socket).
func startPeer(t *testing.T, in *inbox, wrap func(*udp.Endpoint, *udp.Loop) transport.Endpoint) *peer {
	t.Helper()
	p, err := start("127.0.0.1:0", wrap)
	if err != nil {
		t.Skipf("no loopback UDP here: %v", err)
	}
	t.Cleanup(p.stop)
	if in != nil {
		await(p.loop, opTimeout, func(report func(bool)) { p.onSecret = in.onSecret; report(true) })
	}
	return p
}

// startCluster starts n peers, every one but the first joining it by
// address alone, and checks each join.
func startCluster(t *testing.T, n int, in *inbox) []*peer {
	t.Helper()
	first := startPeer(t, in, nil)
	seed := string(first.node.Contact().Addr)
	peers := []*peer{first}
	for i := 1; i < n; i++ {
		p := startPeer(t, in, nil)
		began := time.Now()
		contacts, ok, err := p.join([]string{seed})
		took := time.Since(began)
		if err != nil || !ok {
			t.Fatalf("peer %d: join by address: ok=%v err=%v", i, ok, err)
		}
		// One contact after a full rpcTimeout is what a join that never
		// resolves its seed looks like: the self-lookup's only query times out.
		if want := min(i, 2); contacts < want {
			t.Errorf("peer %d joined with %d contacts, want at least %d", i, contacts, want)
		}
		if took >= rpcTimeout {
			t.Errorf("peer %d took %v to join, want under one rpcTimeout (%v)", i, took, rpcTimeout)
		}
		peers = append(peers, p)
	}
	return peers
}

// secretPacket is the app payload that hands secret to a host as an emerged
// secret of mission 0.
func secretPacket(secret string) []byte {
	return protocol.Packet{Kind: protocol.PkSecret, Data: []byte(secret)}.AppendEncode(nil)
}

// TestLoopbackCluster is the dhtnode join as a script: five peers on loopback
// sockets, each on its own loop, every one but the first joining by address
// alone; then an owner send to a peer's identifier, which that peer's host,
// the identifier's closest owner, receives.
// Run with -race: the socket readers, this goroutine and five loops all meet
// the nodes only through Post.
func TestLoopbackCluster(t *testing.T) {
	peers := startCluster(t, 5, nil)
	var owner inbox
	if _, ok := await(peers[1].loop, opTimeout, func(report func(bool)) { peers[1].onSecret = owner.onSecret; report(true) }); !ok {
		t.Fatal("peer 1's loop did not run the hook's install")
	}
	_, ok := await(peers[3].loop, opTimeout, func(report func(bool)) {
		n := peers[3].node
		buf := n.Bufs().Get()
		*buf = append((*buf)[:0], secretPacket("to the owners")...)
		n.SendBufToOwners(peers[1].node.ID(), buf, 2, 0)
		report(true)
	})
	if !ok {
		t.Fatal("peer 3's loop did not run the send")
	}
	if !waitFor(func() bool { return owner.has([]byte("to the owners")) }) {
		t.Fatal("the owner send did not reach the closest owner's host")
	}
}

// TestLoopbackMission is dhtnode -send as a script: six peers on loopback
// sockets, each a holder, and one of them dispatches a mission to itself. The
// secret emerges there, equal to the text sent, and not before its release.
func TestLoopbackMission(t *testing.T) {
	peers := startCluster(t, 6, nil)
	e, ok := peers[4].send("meet at noon")
	switch {
	case !ok:
		t.Fatal("the mission's secret never emerged")
	case e.err != nil:
		t.Fatalf("dispatch: %v", e.err)
	case string(e.secret) != "meet at noon":
		t.Errorf("emerged %q, want %q", e.secret, "meet at noon")
	case e.late < 0:
		t.Errorf("emerged %v before its release", -e.late)
	}
}

// lossyEndpoint is a peer's socket under a fault engine of its own: the
// engine judges every datagram the node sends, which is then dropped, sent
// late by the verdict's Extra, or sent at once. Duplication is not played.
// Send runs on the peer's loop, and so does the engine, as on a fabric slice.
type lossyEndpoint struct {
	*udp.Endpoint
	engine *fault.Engine
	clock  sim.Clock
}

func (e *lossyEndpoint) Send(to transport.Addr, payload []byte) error {
	v := e.engine.Judge(e.clock.Now(), e.Addr(), to)
	switch {
	case v.Drop:
		return nil
	case v.Extra > 0:
		late := bytes.Clone(payload) // the caller may reuse payload once Send returns
		e.clock.Schedule(v.Extra, func() { _ = e.Endpoint.Send(to, late) })
		return nil
	}
	return e.Endpoint.Send(to, payload)
}

// lossy wraps a peer's socket in burst loss at severity 0.5 from an engine
// seeded with seed.
func lossy(t *testing.T, seed uint64) func(*udp.Endpoint, *udp.Loop) transport.Endpoint {
	t.Helper()
	engine, err := fault.New(fault.Config{Profile: fault.ProfileBurst, Severity: 0.5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return func(ep *udp.Endpoint, loop *udp.Loop) transport.Endpoint {
		return &lossyEndpoint{Endpoint: ep, engine: engine, clock: loop.Clock()}
	}
}

// TestLoopbackMissionUnderLoss is TestLoopbackMission with every peer's
// sends under burst loss, joins included: the retry-hardened node and host
// carry the mission through, its secret emerges no earlier than its release,
// and the nodes' counters show requests re-sent.
func TestLoopbackMissionUnderLoss(t *testing.T) {
	peers := make([]*peer, 6)
	for i := range peers {
		peers[i] = startPeer(t, nil, lossy(t, uint64(i)+1))
	}
	seed := []string{string(peers[0].node.Contact().Addr)}
	for i, p := range peers[1:] {
		if _, ok, err := p.join(seed); err != nil || !ok {
			t.Fatalf("peer %d: join under loss: ok=%v err=%v", i+1, ok, err)
		}
	}
	e, ok := peers[4].send("meet despite loss")
	switch {
	case !ok:
		t.Fatal("the mission's secret never emerged")
	case e.err != nil:
		t.Fatalf("dispatch: %v", e.err)
	case string(e.secret) != "meet despite loss":
		t.Errorf("emerged %q, want %q", e.secret, "meet despite loss")
	case e.late < 0:
		t.Errorf("emerged %v before its release", -e.late)
	}
	var total dht.Resilience
	for _, p := range peers {
		r, ok := await(p.loop, opTimeout, func(report func(dht.Resilience)) { report(p.node.Resilience()) })
		if !ok {
			t.Fatal("a peer's loop did not report its counters")
		}
		total.Add(r)
	}
	t.Logf("late %v, %+v", e.late, total)
	if total.Retries == 0 {
		t.Error("no request was re-sent: the loss never reached a request")
	}
}

// TestHostileDatagrams writes what a stranger can write straight to a live
// node's socket — truncated, oversized and garbage datagrams, well-formed
// responses to requests the node never made, and an app payload under a
// reserved kind or the retired wire version — and then checks the node is
// still there: it has not panicked, its loop is not stuck, and it answers a
// ping; and that none of it reached the host.
func TestHostileDatagrams(t *testing.T) {
	var in inbox
	victim := startPeer(t, &in, nil)
	friend := startPeer(t, nil, nil)
	if _, ok, err := friend.join([]string{string(victim.node.Contact().Addr)}); err != nil || !ok {
		t.Fatalf("join: ok=%v err=%v", ok, err)
	}

	raw, err := net.Dial("udp", string(victim.node.Contact().Addr))
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	encode := func(m dht.Message) []byte {
		data, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	stranger := dht.Contact{ID: dht.IDFromKey([]byte("stranger")), Addr: transport.Addr(raw.LocalAddr().String())}
	ping := encode(dht.Message{Kind: dht.KindPing, RPCID: 1, From: stranger})
	forged := encode(dht.Message{Kind: dht.KindApp, From: stranger, App: secretPacket("forged")})
	reservedKind, version1 := bytes.Clone(forged), bytes.Clone(forged)
	reservedKind[3] = 8 // FIND_VALUE_RESP in wire version 1
	version1[2] = 1
	hostile := [][]byte{
		{},
		{0xff},
		ping[:len(ping)/2],
		ping[:len(ping)-1],
		bytes.Repeat([]byte{0xa5}, 1500),
		append(bytes.Clone(ping), bytes.Repeat([]byte{0}, transport.MaxDatagram)...), // oversized
		// Responses nobody asked for: an RPCID the victim never issued, and
		// its friend's identity on a stranger's reply.
		encode(dht.Message{Kind: dht.KindPong, RPCID: 1 << 40, From: stranger}),
		encode(dht.Message{Kind: dht.KindFindNodeResp, RPCID: 1, From: friend.node.Contact(), Contacts: []dht.Contact{stranger}}),
		encode(dht.Message{Kind: dht.KindAppAck, RPCID: 3, From: stranger}),
		reservedKind,
		version1,
	}
	for round := 0; round < 5; round++ {
		for i, d := range hostile {
			if _, err := raw.Write(d); err != nil && len(d) <= transport.MaxDatagram {
				t.Fatalf("writing hostile datagram %d: %v", i, err)
			}
		}
	}

	// The flood may have pushed a ping out of the victim's socket buffer —
	// that is UDP, not a stall — so a few are tried; a dead loop answers none.
	var pingErr error
	for attempt := 0; attempt < 5; attempt++ {
		var ok bool
		pingErr, ok = await(friend.loop, opTimeout, func(report func(error)) {
			friend.node.Ping(victim.node.Contact(), report)
		})
		if !ok {
			t.Fatal("friend's loop did not report the ping's outcome")
		}
		if pingErr == nil {
			break
		}
	}
	if pingErr != nil {
		t.Fatalf("victim no longer answers a ping: %v", pingErr)
	}
	// The forged FIND_NODE response carried the friend's ID from a stranger's
	// socket: the victim must not have re-pointed the friend's address.
	held, _ := await(victim.loop, opTimeout, func(report func(bool)) {
		for _, c := range victim.node.Table().Closest(friend.node.ID(), 1) {
			report(c == friend.node.Contact())
			return
		}
		report(false)
	})
	if !held {
		t.Error("victim's route to its friend was re-pointed by a forged response")
	}
	// The same payload as a well-formed datagram does reach the host: the
	// control that the two forms above were refused for their kind and
	// version byte alone. The stranger's socket delivers in order, so once the
	// control is in, every hostile datagram before it has been handled.
	control := encode(dht.Message{Kind: dht.KindApp, From: stranger, App: secretPacket("control")})
	resend := func() bool {
		_, _ = raw.Write(control) // a write lost to a full buffer is the next poll's to repeat
		return in.has([]byte("control"))
	}
	if !waitFor(resend) {
		t.Fatal("a well-formed app datagram never reached the victim's host")
	}
	if in.has([]byte("forged")) {
		t.Error("an app payload under a reserved kind or wire version 1 reached the host")
	}
}
