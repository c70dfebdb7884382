package dht

import (
	"runtime"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// TestBackoffSequenceGolden pins the deterministic backoff schedule: the
// exact jittered gaps a known node ID draws for consecutive re-sends. Any
// change here shifts every retry-enabled event sequence — if intentional,
// re-pin and note it as a determinism break for retry arms.
func TestBackoffSequenceGolden(t *testing.T) {
	var id ID
	copy(id[:], []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04})
	rng := stats.NewRNG(retrySeed(id))
	var got []time.Duration
	for attempt := 1; attempt < 5; attempt++ {
		got = append(got, backoff(attempt, rng))
	}
	want := []time.Duration{294103557, 409774523, 791183175, 2275030741}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("backoff[%d] = %v, want %v (full sequence %v)", i, got[i], want[i], got)
		}
	}
	// Structural bounds hold regardless of the jitter draw: gap i lies in
	// [base/2, base] with base = min(retryBackoff<<i, retryMaxBackoff).
	rng2 := stats.NewRNG(stats.Mix64(9, 9))
	for attempt := 1; attempt < 12; attempt++ {
		base := retryBackoff << (attempt - 1)
		if base <= 0 || base > retryMaxBackoff {
			base = retryMaxBackoff
		}
		g := backoff(attempt, rng2)
		if g < base/2 || g > base {
			t.Errorf("backoff(%d) = %v outside [%v, %v]", attempt, g, base/2, base)
		}
	}
}

// retryPair is two nodes on one fabric, a configured from-node and a plain
// receiver, with an optional injector between them.
func retryPair(t *testing.T, cfg Config, inj simnet.Injector, onApp AppHandler) (*sim.Simulator, *Node, *Node) {
	t.Helper()
	return latencyPair(t, 5*time.Millisecond, cfg, inj, onApp)
}

// latencyPair is retryPair over a fabric whose one-way delay is latency, with
// no jitter: every round trip the injector leaves alone takes 2·latency.
func latencyPair(t *testing.T, latency time.Duration, cfg Config, inj simnet.Injector, onApp AppHandler) (*sim.Simulator, *Node, *Node) {
	t.Helper()
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: latency, Seed: 3})
	net.SetInjector(inj)
	rng := stats.NewRNG(42)
	cfg.ID = RandomID(rng)
	cfg.Endpoint = net.Endpoint("a")
	cfg.Clock = s
	a, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNode(Config{ID: RandomID(rng), Endpoint: net.Endpoint("b"), Clock: s, OnApp: onApp})
	if err != nil {
		t.Fatal(err)
	}
	return s, a, b
}

// dropFirst drops the first n datagrams it judges, then passes everything.
type dropFirst struct{ n int }

func (d *dropFirst) Judge(time.Time, transport.Addr, transport.Addr) simnet.Verdict {
	if d.n > 0 {
		d.n--
		return simnet.Verdict{Drop: true}
	}
	return simnet.Verdict{}
}

// TestRetryRecoversLostRPC: with the first request datagram eaten, a
// single-shot ping fails while a retrying ping succeeds — and the counters
// record one re-send and one recovered RPC.
func TestRetryRecoversLostRPC(t *testing.T) {
	run := func(retry int) (error, Resilience) {
		s, a, b := retryPair(t, Config{Retry: retry}, &dropFirst{n: 1}, nil)
		var got error
		sawCb := false
		a.Ping(b.Contact(), func(err error) { got, sawCb = err, true })
		s.RunFor(time.Minute)
		if !sawCb {
			t.Fatal("ping callback never ran")
		}
		return got, a.Resilience()
	}
	if err, _ := run(0); err != ErrTimeout {
		t.Fatalf("single-shot ping over a dropped datagram: err = %v, want ErrTimeout", err)
	}
	err, res := run(3)
	if err != nil {
		t.Fatalf("retrying ping failed: %v", err)
	}
	if res.Retries != 1 || res.Recovered != 1 {
		t.Fatalf("resilience = %+v, want 1 retry / 1 recovered", res)
	}
}

// TestRetryExhaustsToTimeout: a peer that never answers still yields
// ErrTimeout, after exactly Retry sends.
func TestRetryExhaustsToTimeout(t *testing.T) {
	s, a, b := retryPair(t, Config{Retry: 3}, &dropFirst{n: 1 << 30}, nil)
	var got error
	sawCb := false
	a.Ping(b.Contact(), func(err error) { got, sawCb = err, true })
	s.RunFor(time.Minute)
	if !sawCb || got != ErrTimeout {
		t.Fatalf("cb=%v err=%v, want ErrTimeout", sawCb, got)
	}
	if res := a.Resilience(); res.Retries != 2 || res.Recovered != 0 {
		t.Fatalf("resilience = %+v, want 2 retries / 0 recovered", res)
	}
}

// dupAll duplicates every datagram.
type dupAll struct{}

func (dupAll) Judge(time.Time, transport.Addr, transport.Addr) simnet.Verdict {
	return simnet.Verdict{DupExtra: time.Millisecond}
}

// TestAckedAppDedup: a retrying sender's app payload arrives exactly once
// at OnApp even when the fabric duplicates every datagram, and the
// duplicate is counted.
func TestAckedAppDedup(t *testing.T) {
	delivered := 0
	var s *sim.Simulator
	var a, b *Node
	s, a, b = retryPair(t, Config{Retry: 3}, dupAll{}, appFunc(func(from Contact, payload []byte) {
		delivered++
		if string(payload) != "hello" {
			t.Errorf("payload = %q", payload)
		}
	}))
	if err := a.SendApp(b.Contact(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Minute)
	if delivered != 1 {
		t.Fatalf("OnApp ran %d times, want 1", delivered)
	}
	if res := b.Resilience(); res.Duplicates == 0 {
		t.Fatal("receiver counted no duplicate deliveries")
	}
}

// ackedAppReceiver is a node on its own loop that counts the app payloads
// it hands to OnApp, and send writes it one acked app datagram, RPCID rpc,
// from the contact from, as a retrying sender's would arrive.
type ackedAppReceiver struct {
	t         *testing.T
	scratch   *Scratch
	net       *simnet.Network
	clock     *sim.Simulator
	node      *Node
	delivered int
}

func newAckedAppReceiver(t *testing.T, id ID) *ackedAppReceiver {
	s := sim.NewSimulator()
	r := &ackedAppReceiver{t: t, scratch: NewScratch(0), net: simnet.New(s, simnet.Config{Seed: 3}), clock: s}
	r.join(id)
	return r
}

// join builds a node with id on the receiver's loop and address, in place of
// the one there.
func (r *ackedAppReceiver) join(id ID) {
	if r.node != nil {
		r.node.Close()
	}
	n, err := NewNode(Config{ID: id, Endpoint: r.net.Endpoint("b"), Clock: r.clock, Scratch: r.scratch,
		OnApp: appFunc(func(Contact, []byte) { r.delivered++ })})
	if err != nil {
		r.t.Fatal(err)
	}
	r.node = n
}

func (r *ackedAppReceiver) send(from Contact, rpc uint64) {
	data, err := (Message{Kind: KindApp, From: from, RPCID: rpc, App: []byte("x")}).AppendEncode(nil)
	if err != nil {
		r.t.Fatal(err)
	}
	r.node.Receive(from.Addr, data)
	r.clock.RunFor(time.Second) // the ack, to an address nothing listens on
}

// TestAckedAppDedupEvictsOldest: the loop's dedup index keeps the newest
// maxAppSeen marks. After maxAppSeen+1 distinct acked apps the first is
// forgotten and delivers again, while a re-send of any later one — the one
// just before the bound was crossed included — is still suppressed.
func TestAckedAppDedupEvictsOldest(t *testing.T) {
	rng := stats.NewRNG(7)
	r := newAckedAppReceiver(t, RandomID(rng))
	from := Contact{ID: RandomID(rng), Addr: "a"}
	for rpc := uint64(1); rpc <= maxAppSeen+1; rpc++ {
		r.send(from, rpc)
	}
	if r.delivered != maxAppSeen+1 {
		t.Fatalf("%d distinct acked apps delivered %d times", maxAppSeen+1, r.delivered)
	}
	for _, rpc := range []uint64{maxAppSeen + 1, maxAppSeen, 2} {
		r.send(from, rpc)
		if r.delivered != maxAppSeen+1 {
			t.Fatalf("a re-send of RPCID %d was delivered again", rpc)
		}
	}
	r.send(from, 1)
	if r.delivered != maxAppSeen+2 {
		t.Fatal("the oldest mark outlived the bound: a re-send of RPCID 1 was suppressed")
	}
}

// TestAckedAppDedupReplacement: a node that takes its predecessor's ID on the
// same loop starts with no marks, so a re-sent RPCID the predecessor had
// already delivered reaches the replacement exactly once.
func TestAckedAppDedupReplacement(t *testing.T) {
	rng := stats.NewRNG(8)
	id := RandomID(rng)
	r := newAckedAppReceiver(t, id)
	from := Contact{ID: RandomID(rng), Addr: "a"}
	r.send(from, 9)
	r.join(id)
	r.send(from, 9)
	r.send(from, 9)
	if r.delivered != 2 {
		t.Fatalf("RPCID 9 delivered %d times across the node and its replacement, want once each", r.delivered)
	}
}

// TestAckedAppDedupHeapBounded: marking eight times maxAppSeen distinct
// deliveries leaves the index holding the newest maxAppSeen marks, in at
// most twice the heap it held when it first filled: the map's deleted slots
// cost it some room, not a table per eviction. On linux/amd64 with go1.24 it
// holds 4.2 MB when full and 4.6–5.5 MB after the eight rounds, and levels
// off at 7.4 MB however many more follow.
func TestAckedAppDedupHeapBounded(t *testing.T) {
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var seen appSeen
	before := heap()
	var full uint64
	for i := range uint64(8 * maxAppSeen) {
		if seen.mark(appKey{rpc: i, node: 1}) {
			t.Fatalf("distinct key %d reported as a duplicate", i)
		}
		if i+1 == maxAppSeen {
			full = heap() - before
		}
	}
	held := heap() - before
	t.Logf("index holds %d bytes when full, %d after %d marks", full, held, 8*maxAppSeen)
	if len(seen.marks) != maxAppSeen || len(seen.order) != maxAppSeen {
		t.Fatalf("index holds %d marks in a %d-key ring, want %d", len(seen.marks), len(seen.order), maxAppSeen)
	}
	if held > 2*full {
		t.Fatalf("index holds %d bytes after %d marks, over twice the %d it held when full", held, 8*maxAppSeen, full)
	}
	runtime.KeepAlive(&seen)
}

// TestFireAndForgetAppUnchanged: without a retry policy, SendApp stays a
// bare KindApp datagram — RPCID zero, no ack traffic, no dedup state.
func TestFireAndForgetAppUnchanged(t *testing.T) {
	delivered := 0
	var s *sim.Simulator
	var a, b *Node
	s, a, b = retryPair(t, Config{}, nil, appFunc(func(Contact, []byte) { delivered++ }))
	if err := a.SendApp(b.Contact(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	if delivered != 1 {
		t.Fatalf("OnApp ran %d times, want 1", delivered)
	}
	if len(b.cfg.Scratch.appSeen.order) != 0 {
		t.Fatal("fire-and-forget delivery populated the loop's ack dedup index")
	}
	if res := a.Resilience(); res != (Resilience{}) {
		t.Fatalf("sender resilience = %+v, want zero", res)
	}
}

// TestProbeTimeoutIndependent: liveness probes are single-shot — a verdict
// after exactly one rpcTimeout — even when the node retries its regular RPCs.
func TestProbeTimeoutIndependent(t *testing.T) {
	s, a, b := retryPair(t, Config{Retry: 4}, &dropFirst{n: 1 << 30}, nil)
	_ = b
	start := s.Now()
	var elapsed time.Duration
	sawCb := false
	a.probe(b.Contact(), func(err error) {
		elapsed, sawCb = s.Now().Sub(start), true
		if err != ErrTimeout {
			t.Errorf("probe err = %v, want ErrTimeout", err)
		}
	})
	s.RunFor(time.Minute)
	if !sawCb {
		t.Fatal("probe callback never ran")
	}
	if elapsed != rpcTimeout {
		t.Fatalf("probe verdict after %v, want exactly one rpcTimeout (%v): no retry stretch", elapsed, rpcTimeout)
	}
	if res := a.Resilience(); res.Retries != 0 {
		t.Fatalf("probe retried: %+v", res)
	}
}

// TestLookupRequeriesTimedOutContact: with retry enabled, one transient
// blackout of a contact does not exclude it from the lookup result; the
// re-query path gives it a second RPC.
func TestLookupRequeriesTimedOutContact(t *testing.T) {
	// Deterministic micro-topology: a knows only b; every datagram between
	// them is eaten until the blackout lifts, which happens while the
	// requery is pending.
	// First RPC: both sends eaten (2 drops). Requery RPC: first send eaten
	// (3rd drop), its retry passes — so the contact only survives if the
	// requery path ran AND the node-level retry backed it up.
	inj := &dropFirst{n: 3}
	s, a, b := retryPair(t, Config{Retry: 2}, inj, nil)
	a.table.Observe(b.Contact())
	var got []Contact
	a.Lookup(b.ID(), func(cs []Contact) {
		got = append(got[:0], cs...)
	})
	s.RunFor(time.Minute)
	found := false
	for _, c := range got {
		if c.ID == b.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("requery did not restore the blacked-out contact; result %v", got)
	}
}
