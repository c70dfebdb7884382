package main

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"selfemerge/internal/dht"
	"selfemerge/internal/transport"
)

// rpcTimeout is the dht package's per-attempt RPC deadline.
const rpcTimeout = 500 * time.Millisecond

// inbox collects the app payloads the test's peers receive; their OnApp
// handlers run on the peers' loop goroutines.
type inbox struct {
	mu  sync.Mutex
	got [][]byte
}

func (in *inbox) onApp(_ dht.Contact, payload []byte) {
	in.mu.Lock()
	in.got = append(in.got, append([]byte(nil), payload...))
	in.mu.Unlock()
}

func (in *inbox) count() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.got)
}

func (in *inbox) has(payload []byte) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, p := range in.got {
		if bytes.Equal(p, payload) {
			return true
		}
	}
	return false
}

func startPeer(t *testing.T, in *inbox) *peer {
	t.Helper()
	p, err := start("127.0.0.1:0", in.onApp)
	if err != nil {
		t.Skipf("no loopback UDP here: %v", err)
	}
	t.Cleanup(p.stop)
	return p
}

// TestLoopbackCluster is the dhtnode command line as a script: five peers on
// loopback sockets, each on its own loop, every one but the first joining by
// address alone; then -store on one peer and -get on another, and an owner
// send. Run with -race: the socket readers, this goroutine and five loops all
// meet the nodes only through Post.
func TestLoopbackCluster(t *testing.T) {
	var in inbox
	first := startPeer(t, &in)
	seed := string(first.node.Contact().Addr)
	peers := []*peer{first}
	for i := 1; i < 5; i++ {
		p := startPeer(t, &in)
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

	value := []byte("ciphertext")
	if acked, ok := peers[2].store("exam", value); !ok || acked < 2 {
		t.Fatalf("store: %d replicas acknowledged (ok=%v), want at least 2", acked, ok)
	}
	if got, ok := peers[4].get("exam"); !ok || !bytes.Equal(got, value) {
		t.Fatalf("get on another peer = %q (ok=%v), want %q", got, ok, value)
	}
	if got, ok := peers[1].get("no such key"); !ok || got != nil {
		t.Errorf("get of an unknown key = %q (ok=%v), want nothing", got, ok)
	}

	payload := []byte("to the owners")
	sendErr, ok := await(peers[3].loop, func(report func(error)) {
		peers[3].node.SendToOwners(dht.IDFromKey([]byte("slot")), payload, 2, func(_ dht.Contact, err error) { report(err) })
	})
	if !ok || sendErr != nil {
		t.Fatalf("SendToOwners: ok=%v err=%v", ok, sendErr)
	}
	for deadline := time.Now().Add(5 * time.Second); !in.has(payload); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the owner send reached no peer")
		}
	}
}

// TestHostileDatagrams writes what a stranger can write straight to a live
// node's socket — truncated, oversized and garbage datagrams, and well-formed
// responses to requests the node never made — and then checks the node is
// still there: it has not panicked, its loop is not stuck, and it answers a
// ping. (ROADMAP 6(d), first instalment.)
func TestHostileDatagrams(t *testing.T) {
	var in inbox
	victim := startPeer(t, &in)
	friend := startPeer(t, &in)
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
		encode(dht.Message{Kind: dht.KindFindValueResp, RPCID: 2, From: stranger, Found: true, Value: []byte("x")}),
		encode(dht.Message{Kind: dht.KindAppAck, RPCID: 3, From: stranger}),
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
		pingErr, ok = await(friend.loop, func(report func(error)) {
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
	held, _ := await(victim.loop, func(report func(bool)) {
		for _, c := range victim.node.Table().Closest(friend.node.ID(), 1) {
			report(c == friend.node.Contact())
			return
		}
		report(false)
	})
	if !held {
		t.Error("victim's route to its friend was re-pointed by a forged response")
	}
	if n := in.count(); n != 0 {
		t.Errorf("hostile datagrams produced %d app deliveries", n)
	}
}
