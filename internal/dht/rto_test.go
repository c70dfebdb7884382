package dht

import (
	"testing"
	"time"

	"selfemerge/internal/sim"
)

// pingTimed pings b from a, runs the loop for a minute and returns the
// callback's error and the time it took to run.
func pingTimed(t *testing.T, s *sim.Simulator, a, b *Node) (error, time.Duration) {
	t.Helper()
	start := s.Now()
	var got error
	var took time.Duration
	sawCb := false
	a.Ping(b.Contact(), func(err error) { got, took, sawCb = err, s.Now().Sub(start), true })
	s.RunFor(time.Minute)
	if !sawCb {
		t.Fatal("ping callback never ran")
	}
	return got, took
}

// warm gives a a round-trip measurement: n pings b answers.
func warm(t *testing.T, s *sim.Simulator, a, b *Node, n int) {
	t.Helper()
	for range n {
		if err, _ := pingTimed(t, s, a, b); err != nil {
			t.Fatalf("warm-up ping: %v", err)
		}
	}
	if !a.rttSampled {
		t.Fatal("answered pings left the node with no round-trip sample")
	}
}

// TestEarlyResendAtRTO: once a node has measured the fabric's round trip, a
// dropped first request is re-sent at the node's rto and answered one round
// trip later, not after rpcTimeout, and the counters see one re-send that
// recovered the RPC.
func TestEarlyResendAtRTO(t *testing.T) {
	const rtt = 10 * time.Millisecond
	inj := &dropFirst{}
	s, a, b := retryPair(t, Config{Retry: 3}, inj, nil)
	warm(t, s, a, b, 4)
	rto := a.rto()
	if rto != rtoMin {
		t.Fatalf("rto on a fixed %v round trip = %v, want the floor %v", rtt, rto, rtoMin)
	}
	inj.n = 1
	err, took := pingTimed(t, s, a, b)
	if err != nil {
		t.Fatalf("ping over one dropped request: %v", err)
	}
	if took != rto+rtt {
		t.Fatalf("answered after %v, want rto + rtt = %v", took, rto+rtt)
	}
	if res := a.Resilience(); res.Retries != 1 || res.Recovered != 1 {
		t.Fatalf("resilience = %+v, want 1 retry / 1 recovered", res)
	}
}

// TestKarnRule: the answer to a re-sent request measures nothing — it could
// be to either send — and neither does a response that settle does not match
// to a request of the node's.
func TestKarnRule(t *testing.T) {
	inj := &dropFirst{}
	s, a, b := retryPair(t, Config{Retry: 3}, inj, nil)
	warm(t, s, a, b, 4)
	srtt, rttvar := a.srtt, a.rttvar
	inj.n = 1
	if err, _ := pingTimed(t, s, a, b); err != nil {
		t.Fatal(err)
	}
	if a.srtt != srtt || a.rttvar != rttvar {
		t.Fatalf("answer to a re-send moved the estimator: srtt %d → %d, rttvar %d → %d", srtt, a.srtt, rttvar, a.rttvar)
	}

	// A pong for a request in flight, but from a peer it was not sent to,
	// and a pong for no request at all: both arrive long after the send.
	inj.n = 1 << 30
	a.Ping(b.Contact(), func(error) {})
	s.RunFor(rpcTimeout / 2)
	id := a.pending[0].id
	for _, m := range []Message{
		{Kind: KindPong, RPCID: id, From: Contact{ID: IDFromKey([]byte("forger")), Addr: "b"}},
		{Kind: KindPong, RPCID: id + 1, From: b.Contact()},
	} {
		data, err := m.AppendEncode(nil)
		if err != nil {
			t.Fatal(err)
		}
		a.Receive("b", data)
	}
	if a.srtt != srtt || a.rttvar != rttvar {
		t.Fatalf("an unmatched pong moved the estimator: srtt %d → %d, rttvar %d → %d", srtt, a.srtt, rttvar, a.rttvar)
	}
}

// TestRTOClamped: a peer that answers just inside rpcTimeout cannot push the
// rto past it, and one that answers at once cannot pull it under rtoMin —
// a dropped request is re-sent no sooner than rtoMin after its send.
func TestRTOClamped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		latency time.Duration
		want    time.Duration
	}{
		{"slow", 499 * time.Millisecond / 2, rpcTimeout},
		{"instant", time.Nanosecond, rtoMin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := &dropFirst{}
			s, a, b := latencyPair(t, tc.latency, Config{Retry: 3}, inj, nil)
			warm(t, s, a, b, 16)
			if got := a.rto(); got != tc.want {
				t.Fatalf("rto after 16 round trips of %v = %v, want %v", 2*tc.latency, got, tc.want)
			}
			if res := a.Resilience(); res.Retries != 0 {
				t.Fatalf("answers inside the rto were re-sent: %+v", res)
			}
			inj.n = 1
			err, took := pingTimed(t, s, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := tc.want + 2*tc.latency; took != want {
				t.Fatalf("dropped request answered after %v, want rto + rtt = %v", took, want)
			}
		})
	}
}

// TestEarlyResendNeverFailsSooner: a request nobody answers still ends in
// ErrTimeout, and a warmed node reaches it no earlier than a fresh one: the
// early re-send adds its rto in front of the same give-up schedule.
func TestEarlyResendNeverFailsSooner(t *testing.T) {
	policy := Config{Retry: 3}
	s, a, b := retryPair(t, policy, &dropFirst{n: 1 << 30}, nil)
	err, fresh := pingTimed(t, s, a, b)
	if err != ErrTimeout {
		t.Fatalf("fresh node: err = %v, want ErrTimeout", err)
	}

	inj := &dropFirst{}
	s, a, b = retryPair(t, policy, inj, nil)
	warm(t, s, a, b, 4)
	rto := a.rto()
	inj.n = 1 << 30
	err, warmed := pingTimed(t, s, a, b)
	if err != ErrTimeout {
		t.Fatalf("warmed node: err = %v, want ErrTimeout", err)
	}
	if warmed != fresh+rto {
		t.Fatalf("warmed node gave up after %v, want the fresh node's %v plus its rto %v", warmed, fresh, rto)
	}
	if res := a.Resilience(); res.Retries != 3 || res.Recovered != 0 {
		t.Fatalf("resilience = %+v, want 3 retries (one early) / 0 recovered", res)
	}
}
