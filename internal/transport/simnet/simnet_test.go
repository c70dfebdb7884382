package simnet

import (
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

func TestDeliveryWithLatency(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{BaseLatency: 50 * time.Millisecond})
	a := net.Endpoint("a")
	b := net.Endpoint("b")

	var gotFrom transport.Addr
	var gotAt time.Time
	var payload []byte
	b.SetHandler(func(from transport.Addr, p []byte) {
		gotFrom, gotAt, payload = from, s.Now(), p
	})
	start := s.Now()
	if err := a.Send("b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if string(payload) != "hello" || gotFrom != "a" {
		t.Fatalf("got %q from %q", payload, gotFrom)
	}
	if gotAt.Sub(start) != 50*time.Millisecond {
		t.Errorf("delivered after %v", gotAt.Sub(start))
	}
}

func TestPayloadIsCopied(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var got []byte
	b.SetHandler(func(_ transport.Addr, p []byte) { got = p })
	buf := []byte("original")
	if err := a.Send("b", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXX") // sender reuses its buffer before delivery
	s.Run()
	if string(got) != "original" {
		t.Errorf("payload aliased sender buffer: %q", got)
	}
}

// lossInjector drops each datagram it judges with probability rate, drawn
// from its own seeded stream: uniform loss through the Injector hook. It is
// stateful, so a partition needs one per shard (Partition.SetInjector).
type lossInjector struct {
	rng  *stats.RNG
	rate float64
}

func newLoss(seed uint64, rate float64) *lossInjector {
	return &lossInjector{rng: stats.NewRNG(seed), rate: rate}
}

func (l *lossInjector) Judge(time.Time, transport.Addr, transport.Addr) Verdict {
	return Verdict{Drop: l.rng.Bool(l.rate)}
}

func TestLoss(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	net.SetInjector(newLoss(1, 1))
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(transport.Addr, []byte) { t.Error("lossy network delivered") })
	if err := a.Send("b", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	sent, delivered, dropped := net.Stats()
	if sent != 1 || delivered != 0 || dropped != 1 {
		t.Errorf("stats = %d/%d/%d", sent, delivered, dropped)
	}
}

func TestDownEndpointsDropTraffic(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	got := 0
	b.SetHandler(func(transport.Addr, []byte) { got++ })

	net.SetDown("b", true)
	_ = a.Send("b", []byte("1"))
	s.Run()
	net.SetDown("b", false)
	_ = a.Send("b", []byte("2"))
	s.Run()
	if got != 1 {
		t.Errorf("delivered %d messages, want 1 (only after recovery)", got)
	}
}

func TestDownSenderDropsTraffic(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	got := 0
	b.SetHandler(func(transport.Addr, []byte) { got++ })
	net.SetDown("a", true)
	_ = a.Send("b", []byte("1"))
	s.Run()
	if got != 0 {
		t.Error("down sender delivered")
	}
}

func TestCloseDetaches(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(transport.Addr, []byte) { t.Error("closed endpoint delivered") })
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	_ = a.Send("b", []byte("x"))
	s.Run()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", []byte("y")); err != transport.ErrClosed {
		t.Errorf("send on closed endpoint: %v", err)
	}
}

func TestInFlightMessageToClosedEndpointDropped(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{BaseLatency: time.Second})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	b.SetHandler(func(transport.Addr, []byte) { t.Error("delivered after close") })
	_ = a.Send("b", []byte("x"))
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	s.Run()
}

func TestOversizedPayloadRejected(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	a := net.Endpoint("a")
	if err := a.Send("b", make([]byte, transport.MaxDatagram+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestJitterBounded(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{BaseLatency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 42})
	a := net.Endpoint("a")
	b := net.Endpoint("b")
	var deliveries []time.Duration
	start := s.Now()
	b.SetHandler(func(transport.Addr, []byte) {
		deliveries = append(deliveries, s.Now().Sub(start))
	})
	for i := 0; i < 100; i++ {
		_ = a.Send("b", []byte("x"))
	}
	s.Run()
	if len(deliveries) != 100 {
		t.Fatalf("delivered %d", len(deliveries))
	}
	for _, d := range deliveries {
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("delivery latency %v outside [10ms,15ms)", d)
		}
	}
}

func TestEndpointReplacement(t *testing.T) {
	// Re-attaching the same address replaces the endpoint (a new node takes
	// over a churned-out identity), and closing the endpoint it replaced does
	// not detach it. A datagram already on the wire reaches whatever endpoint
	// holds its destination at delivery: a replacement made in flight, and
	// nobody once the destination has closed for good.
	s := sim.NewSimulator()
	net := New(s, Config{})
	got := map[string]int{}
	attach := func(name string) transport.Endpoint {
		ep := net.Endpoint("x")
		ep.SetHandler(func(transport.Addr, []byte) { got[name]++ })
		return ep
	}
	old := attach("old")
	replacement := attach("replacement")
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	a := net.Endpoint("a")
	_ = a.Send("x", []byte("m"))
	s.Run()

	_ = a.Send("x", []byte("m"))
	if err := replacement.Close(); err != nil {
		t.Fatal(err)
	}
	third := attach("third")
	s.Run()

	_ = a.Send("x", []byte("m"))
	if err := third.Close(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got["old"] != 0 || got["replacement"] != 1 || got["third"] != 1 {
		t.Errorf("delivered %v, want replacement=1 third=1", got)
	}
	if sent, delivered, dropped := net.Stats(); sent != 3 || delivered != 2 || dropped != 1 {
		t.Errorf("stats sent=%d delivered=%d dropped=%d, want 3/2/1", sent, delivered, dropped)
	}
}

// TestReopenAllocatesNothing: the Endpoint call of a churn replacement finds
// its predecessor's closed endpoint on the address's slot and re-opens that
// record in place, on a plain network and through a partition alike.
func TestReopenAllocatesNothing(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	_, p, _ := newTestPartition(t, 2, Config{BaseLatency: time.Millisecond})
	for name, attach := range map[string]func() transport.Endpoint{
		"network":   func() transport.Endpoint { return net.Endpoint("x") },
		"partition": func() transport.Endpoint { return p.Endpoint(1, "x") },
	} {
		ep := attach()
		if err := ep.Close(); err != nil {
			t.Fatal(err)
		}
		if again := attach(); again != ep {
			t.Errorf("%s: a closed endpoint was not re-opened in place", name)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			_ = ep.Close()
			attach()
		}); allocs != 0 {
			t.Errorf("%s: re-opening a closed endpoint allocates %v times", name, allocs)
		}
	}
}

// TestReplacedLiveEndpointSendsNothing: an Endpoint call for an address whose
// endpoint is still open attaches a distinct record, and closes the one it
// replaced, which sends nothing from then on.
func TestReplacedLiveEndpointSendsNothing(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{})
	got := 0
	net.Endpoint("b").SetHandler(func(transport.Addr, []byte) { got++ })
	old := net.Endpoint("a")
	repl := net.Endpoint("a")
	if repl == old {
		t.Fatal("an open endpoint was re-opened in place of a fresh one")
	}
	if err := old.Send("b", []byte("x")); err != transport.ErrClosed {
		t.Errorf("send on a replaced endpoint: %v, want ErrClosed", err)
	}
	if err := repl.Send("b", []byte("y")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if sent, delivered, _ := net.Stats(); sent != 1 || delivered != 1 || got != 1 {
		t.Errorf("sent=%d delivered=%d handled=%d, want the replacement's one datagram", sent, delivered, got)
	}
}

// TestInFlightToReopenedAddress: while an address's endpoint is closed, a
// datagram arriving there and one sent there are both dropped, the second at
// once; a datagram in flight across a close and the re-open that follows
// reaches the new receiver.
func TestInFlightToReopenedAddress(t *testing.T) {
	s := sim.NewSimulator()
	net := New(s, Config{BaseLatency: time.Second})
	a, x := net.Endpoint("a"), net.Endpoint("x")
	x.SetHandler(func(transport.Addr, []byte) { t.Error("the closed endpoint's receiver got a datagram") })
	_ = a.Send("x", []byte("1"))
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	_ = a.Send("x", []byte("2"))
	if sent, _, dropped := net.Stats(); sent != 2 || dropped != 1 {
		t.Errorf("send to a closed address: sent=%d dropped=%d, want 2 and 1 at once", sent, dropped)
	}
	s.RunFor(time.Second)
	x = net.Endpoint("x")
	x.SetHandler(func(transport.Addr, []byte) { t.Error("the closed endpoint's receiver got a datagram") })
	_ = a.Send("x", []byte("3"))
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second / 2)
	var got []string
	net.Endpoint("x").SetHandler(func(_ transport.Addr, p []byte) { got = append(got, string(p)) })
	s.Run()
	if len(got) != 1 || got[0] != "3" {
		t.Errorf("the re-opened endpoint received %q, want [3]", got)
	}
	if sent, delivered, dropped := net.Stats(); sent != 3 || delivered != 1 || dropped != 2 {
		t.Errorf("stats sent=%d delivered=%d dropped=%d, want 3/1/2", sent, delivered, dropped)
	}
}
