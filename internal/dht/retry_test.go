package dht

import (
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
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 3, Inject: inj})
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
	run := func(policy RetryPolicy) (error, Resilience) {
		s, a, b := retryPair(t, Config{Retry: policy}, &dropFirst{n: 1}, nil)
		var got error
		sawCb := false
		a.Ping(b.Contact(), func(err error) { got, sawCb = err, true })
		s.RunFor(time.Minute)
		if !sawCb {
			t.Fatal("ping callback never ran")
		}
		return got, a.Resilience()
	}
	if err, _ := run(RetryPolicy{}); err != ErrTimeout {
		t.Fatalf("single-shot ping over a dropped datagram: err = %v, want ErrTimeout", err)
	}
	err, res := run(RetryPolicy{Attempts: 3})
	if err != nil {
		t.Fatalf("retrying ping failed: %v", err)
	}
	if res.Retries != 1 || res.Recovered != 1 {
		t.Fatalf("resilience = %+v, want 1 retry / 1 recovered", res)
	}
}

// TestRetryExhaustsToTimeout: a peer that never answers still yields
// ErrTimeout, after exactly Attempts sends.
func TestRetryExhaustsToTimeout(t *testing.T) {
	s, a, b := retryPair(t, Config{Retry: RetryPolicy{Attempts: 3}}, &dropFirst{n: 1 << 30}, nil)
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
	s, a, b = retryPair(t, Config{Retry: RetryPolicy{Attempts: 3}}, dupAll{}, appFunc(func(from Contact, payload []byte) {
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
	if b.appSeen != nil {
		t.Fatal("fire-and-forget delivery populated the ack dedup table")
	}
	if res := a.Resilience(); res != (Resilience{}) {
		t.Fatalf("sender resilience = %+v, want zero", res)
	}
}

// TestProbeTimeoutIndependent: liveness probes are single-shot — a verdict
// after exactly one rpcTimeout — even when the node retries its regular RPCs.
func TestProbeTimeoutIndependent(t *testing.T) {
	s, a, b := retryPair(t, Config{Retry: RetryPolicy{Attempts: 4}}, &dropFirst{n: 1 << 30}, nil)
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
	s, a, b := retryPair(t, Config{Retry: RetryPolicy{Attempts: 2}}, inj, nil)
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
