package simnet

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/transport"
)

func newTestPartition(t *testing.T, shards int, cfg Config) ([]*sim.Simulator, *Partition, *sim.Lockstep) {
	t.Helper()
	sims := make([]*sim.Simulator, shards)
	clocks := make([]sim.Clock, shards)
	for i := range sims {
		sims[i] = sim.NewSimulator()
		clocks[i] = sims[i]
	}
	p, err := NewPartition(clocks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := &sim.Lockstep{Sims: sims, Lookahead: p.Lookahead(), Exchange: p.Flush}
	return sims, p, l
}

// TestPartitionPerPairOrdering checks that with zero jitter the cross-shard
// path preserves per-pair FIFO order, exactly like the single fabric: sends
// staggered across many epochs from one endpoint arrive in send order.
func TestPartitionPerPairOrdering(t *testing.T) {
	sims, p, l := newTestPartition(t, 2, Config{BaseLatency: 3 * time.Millisecond})
	a := p.Endpoint(0, "a")
	b := p.Endpoint(1, "b")

	var got []byte
	b.SetHandler(func(from transport.Addr, payload []byte) {
		got = append(got, payload[0])
	})

	// Irregular, non-monotonic send instants with collisions: several sends
	// land in one epoch and several share an instant, exercising the
	// (deliver-time, source shard, seq) merge.
	const n = 50
	when := func(i int) time.Duration {
		return time.Duration(i*i%17)*time.Millisecond + time.Duration(i%5)*100*time.Microsecond
	}
	for i := 0; i < n; i++ {
		i := i
		sims[0].AfterFunc(when(i), func() {
			if err := a.Send("b", []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		})
	}
	l.RunFor(time.Second)

	// Zero jitter makes arrival order the send order: indices sorted by send
	// instant, schedule order breaking ties (the simulator's (at, seq) rule).
	want := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		want = append(want, byte(i))
	}
	sort.SliceStable(want, func(x, y int) bool { return when(int(want[x])) < when(int(want[y])) })
	if len(got) != n {
		t.Fatalf("delivered %d messages, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("arrival %d is message %d, want %d (full order %v)", i, got[i], want[i], got)
		}
	}
}

// TestPartitionLatencyLowerBound checks every cross-shard message arrives at
// least BaseLatency after its send, jitter included — the invariant the
// conservative epoch barrier relies on.
func TestPartitionLatencyLowerBound(t *testing.T) {
	const base = 2 * time.Millisecond
	sims, p, l := newTestPartition(t, 3, Config{BaseLatency: base, Jitter: 5 * time.Millisecond, Seed: 9})
	a := p.Endpoint(0, "a")
	b := p.Endpoint(1, "b")
	c := p.Endpoint(2, "c")

	sendAt := make([]time.Time, 64)
	var delivered atomic.Int64 // b's and c's handlers run on concurrent shard loops
	check := func(s *sim.Simulator) transport.Handler {
		return func(_ transport.Addr, payload []byte) {
			delivered.Add(1)
			if lat := s.Now().Sub(sendAt[payload[0]]); lat < base {
				t.Errorf("message %d latency %v below base %v", payload[0], lat, base)
			}
		}
	}
	b.SetHandler(check(sims[1]))
	c.SetHandler(check(sims[2]))

	for i := 0; i < 40; i++ {
		i := i
		to := transport.Addr("b")
		if i%2 == 1 {
			to = "c"
		}
		sims[0].AfterFunc(time.Duration(i)*700*time.Microsecond, func() {
			sendAt[i] = sims[0].Now()
			if err := a.Send(to, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		})
	}
	l.RunFor(time.Second)
	if got := delivered.Load(); got != 40 {
		t.Fatalf("delivered %d, want 40", got)
	}
}

// ringTrace runs a deterministic cascade workload — 12 endpoints round-robin
// across 3 shards, each receipt forwarded around the ring with a TTL, under
// jitter and a loss injector per shard — and returns the per-shard delivery logs plus the fabric
// stats. Each shard's log is appended only from that shard's event loop, so
// the logs are well-defined under any worker count.
func ringTrace(t *testing.T, workers int) ([][]string, [3]int) {
	t.Helper()
	sims, p, l := newTestPartition(t, 3, Config{
		BaseLatency: time.Millisecond,
		Jitter:      4 * time.Millisecond,
		Seed:        42,
	})
	for shard := range sims {
		p.SetInjector(shard, newLoss(42+uint64(shard), 0.1))
	}
	l.Workers = workers

	const n = 12
	addr := func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("node-%d", i)) }
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		eps[i] = p.Endpoint(i%3, addr(i))
	}
	logs := make([][]string, 3)
	for i := 0; i < n; i++ {
		i := i
		shard := i % 3
		eps[i].SetHandler(func(from transport.Addr, payload []byte) {
			ttl, id := payload[0], payload[1]
			logs[shard] = append(logs[shard],
				fmt.Sprintf("%s<-%s id=%d ttl=%d @%d", addr(i), from, id, ttl, sims[shard].Now().UnixNano()))
			if ttl > 0 {
				if err := eps[i].Send(addr((i+1)%n), []byte{ttl - 1, id}); err != nil {
					t.Error(err)
				}
			}
		})
	}
	for k := 0; k < 6; k++ {
		if err := eps[k].Send(addr((k+5)%n), []byte{8, byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	l.RunFor(2 * time.Second)
	sent, delivered, dropped := p.Stats()
	return logs, [3]int{sent, delivered, dropped}
}

// TestPartitionDeterministicAcrossWorkers checks the headline property: the
// partitioned fabric's observable behaviour is byte-identical whether the
// shard loops run serially or on concurrent workers.
func TestPartitionDeterministicAcrossWorkers(t *testing.T) {
	baseLogs, baseStats := ringTrace(t, 1)
	total := 0
	for _, lg := range baseLogs {
		total += len(lg)
	}
	if total == 0 {
		t.Fatal("workload delivered nothing")
	}
	if baseStats[0] != baseStats[1]+baseStats[2] {
		t.Fatalf("stats inconsistent after drain: sent %d != delivered %d + dropped %d",
			baseStats[0], baseStats[1], baseStats[2])
	}
	for _, workers := range []int{2, 4} {
		logs, stats := ringTrace(t, workers)
		if stats != baseStats {
			t.Errorf("workers=%d stats %v, want %v", workers, stats, baseStats)
		}
		for s := range logs {
			if len(logs[s]) != len(baseLogs[s]) {
				t.Errorf("workers=%d shard %d logged %d events, want %d", workers, s, len(logs[s]), len(baseLogs[s]))
				continue
			}
			for i := range logs[s] {
				if logs[s][i] != baseLogs[s][i] {
					t.Errorf("workers=%d shard %d event %d = %q, want %q", workers, s, i, logs[s][i], baseLogs[s][i])
				}
			}
		}
	}
}

// TestPartitionSingleShardMatchesPlainNetwork checks a one-shard partition
// reproduces the plain fabric byte for byte: same seed, same jitter draws,
// same injector verdicts, same delivery trace. This is the compatibility
// contract that lets partition mode claim S=1 equivalence with historical
// runs.
func TestPartitionSingleShardMatchesPlainNetwork(t *testing.T) {
	cfg := Config{BaseLatency: time.Millisecond, Jitter: 3 * time.Millisecond, Seed: 7}
	const lossSeed, lossRate = 7, 0.15

	run := func(build func(s *sim.Simulator) (func(i int, a transport.Addr) transport.Endpoint, func(d time.Duration))) []string {
		s := sim.NewSimulator()
		endpoint, runFor := build(s)
		const n = 8
		addr := func(i int) transport.Addr { return transport.Addr(fmt.Sprintf("node-%d", i)) }
		eps := make([]transport.Endpoint, n)
		for i := 0; i < n; i++ {
			eps[i] = endpoint(i, addr(i))
		}
		var log []string
		for i := 0; i < n; i++ {
			i := i
			eps[i].SetHandler(func(from transport.Addr, payload []byte) {
				log = append(log, fmt.Sprintf("%s<-%s ttl=%d @%d", addr(i), from, payload[0], s.Now().UnixNano()))
				if payload[0] > 0 {
					if err := eps[i].Send(addr((i+3)%n), []byte{payload[0] - 1}); err != nil {
						t.Error(err)
					}
				}
			})
		}
		for k := 0; k < 4; k++ {
			if err := eps[k].Send(addr((k+1)%n), []byte{6}); err != nil {
				t.Fatal(err)
			}
		}
		runFor(time.Second)
		return log
	}

	plain := run(func(s *sim.Simulator) (func(int, transport.Addr) transport.Endpoint, func(time.Duration)) {
		net := New(s, cfg)
		net.SetInjector(newLoss(lossSeed, lossRate))
		return func(_ int, a transport.Addr) transport.Endpoint { return net.Endpoint(a) }, s.RunFor
	})
	part := run(func(s *sim.Simulator) (func(int, transport.Addr) transport.Endpoint, func(time.Duration)) {
		p, err := NewPartition([]sim.Clock{s}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.SetInjector(0, newLoss(lossSeed, lossRate))
		l := &sim.Lockstep{Sims: []*sim.Simulator{s}, Lookahead: p.Lookahead(), Exchange: p.Flush}
		return func(i int, a transport.Addr) transport.Endpoint { return p.Endpoint(0, a) }, l.RunFor
	})

	if len(plain) == 0 {
		t.Fatal("plain run delivered nothing")
	}
	if len(plain) != len(part) {
		t.Fatalf("plain logged %d events, partition %d", len(plain), len(part))
	}
	for i := range plain {
		if plain[i] != part[i] {
			t.Errorf("event %d: plain %q, partition %q", i, plain[i], part[i])
		}
	}
}

// TestPartitionDownAndClose runs one flap script on the plain network, a
// one-shard partition and a three-shard one (sender and receiver on
// different shards) and requires identical outcomes: the sender's transient
// down state is judged at send time only — a down sender drops at send, a
// datagram already on the wire survives its sender flapping down — while the
// receiver's state is judged at delivery: a down or closed destination drops
// there, and a re-attached destination (churn replacement) receives again,
// also what was sent to its predecessor and still on the wire. On three
// shards every one of these datagrams is a hand-off whose destination Flush
// resolves. A send to an address no endpoint ever attached is dropped at
// send, before the injector is asked, and leaves the address table as it was.
func TestPartitionDownAndClose(t *testing.T) {
	type fabric struct {
		endpoint func(shard int, addr transport.Addr) transport.Endpoint
		setDown  func(addr transport.Addr, down bool)
		runFor   func(time.Duration)
		stats    func() (sent, delivered, dropped int)
		part     *Partition
		inj      []scriptInjector // one per shard, each judging on its own loop
	}
	judged := func(f fabric) (n int) {
		for i := range f.inj {
			n += f.inj[i].judged
		}
		return n
	}
	cfg := Config{BaseLatency: time.Millisecond}
	partition := func(shards int) fabric {
		_, p, l := newTestPartition(t, shards, cfg)
		f := fabric{
			endpoint: func(shard int, addr transport.Addr) transport.Endpoint { return p.Endpoint(shard%shards, addr) },
			setDown:  p.SetDown, runFor: l.RunFor, stats: p.Stats,
			part: p, inj: make([]scriptInjector, shards),
		}
		for i := range f.inj {
			p.SetInjector(i, &f.inj[i])
		}
		return f
	}
	plain := func() fabric {
		s := sim.NewSimulator()
		n := New(s, cfg)
		f := fabric{
			endpoint: func(_ int, addr transport.Addr) transport.Endpoint { return n.Endpoint(addr) },
			setDown:  n.SetDown, runFor: s.RunFor, stats: n.Stats,
			part: n.part, inj: make([]scriptInjector, 1),
		}
		n.SetInjector(&f.inj[0])
		return f
	}
	for _, c := range []struct {
		name string
		fab  fabric
	}{{"plain", plain()}, {"S=1", partition(1)}, {"S=3", partition(3)}} {
		f := c.fab
		a := f.endpoint(0, "a")
		b := f.endpoint(1, "b")
		var got []byte
		recv := func(_ transport.Addr, payload []byte) { got = append(got, payload[0]) }
		b.SetHandler(recv)
		send := func(tag byte) {
			t.Helper()
			if err := a.Send("b", []byte{tag}); err != nil {
				t.Fatal(err)
			}
		}

		f.setDown("a", true)
		send(1) // down sender: dropped at send
		f.setDown("a", false)
		f.runFor(50 * time.Millisecond)

		send(2) // on the wire when its sender flaps down: still delivered
		f.setDown("a", true)
		f.runFor(50 * time.Millisecond)
		f.setDown("a", false)

		send(3) // receiver down at delivery: dropped there
		f.setDown("b", true)
		f.runFor(50 * time.Millisecond)
		f.setDown("b", false)

		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		send(4) // closed destination
		f.runFor(50 * time.Millisecond)

		b2 := f.endpoint(1, "b") // replacement reuses the address and shard
		b2.SetHandler(recv)
		send(5)
		f.runFor(50 * time.Millisecond)

		send(6) // on the wire across a churn replacement: the replacement gets it
		if err := b2.Close(); err != nil {
			t.Fatal(err)
		}
		b3 := f.endpoint(1, "b")
		b3.SetHandler(recv)
		f.runFor(50 * time.Millisecond)

		send(7) // on the wire when its destination closes for good: dropped
		if err := b3.Close(); err != nil {
			t.Fatal(err)
		}
		f.runFor(50 * time.Millisecond)

		// A destination no endpoint ever attached: dropped at send, unjudged.
		slots, asked := len(f.part.slots), judged(f)
		if err := a.Send("ghost", []byte{8}); err != nil {
			t.Fatal(err)
		}
		if sent, _, dropped := f.stats(); sent != 8 || dropped != 5 {
			t.Errorf("%s: after a send to an unattached address, sent=%d dropped=%d, want 8/5", c.name, sent, dropped)
		}
		if len(f.part.slots) != slots || judged(f) != asked {
			t.Errorf("%s: a send to an unattached address grew the table to %d (from %d) or was judged (%d judgments, from %d)",
				c.name, len(f.part.slots), slots, judged(f), asked)
		}
		f.runFor(50 * time.Millisecond)

		if string(got) != "\x02\x05\x06" {
			t.Errorf("%s: delivered %v, want [2 5 6]", c.name, got)
		}
		if sent, delivered, dropped := f.stats(); sent != 8 || delivered != 3 || dropped != 5 {
			t.Errorf("%s: stats sent=%d delivered=%d dropped=%d, want 8/3/5", c.name, sent, delivered, dropped)
		}
	}
}

// TestPartitionOwnershipIsFrozen: an address stays on the shard its first
// attachment put it on. Re-attaching it there is a churn replacement;
// re-attaching it on another shard panics, and leaves the slot as it was.
func TestPartitionOwnershipIsFrozen(t *testing.T) {
	_, p, _ := newTestPartition(t, 2, Config{BaseLatency: time.Millisecond})
	ep := p.Endpoint(0, "a")
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Endpoint(0, "a") != ep {
		t.Fatal("re-attaching a closed endpoint on its own shard did not re-open it")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-attaching an address on another shard did not panic")
			}
		}()
		p.Endpoint(1, "a")
	}()
	if sl := p.slots["a"]; len(p.slots) != 1 || sl.net != p.subs[0] || sl.ep != ep {
		t.Errorf("after the panic: %d slots, owner shard %d, endpoint replaced %v", len(p.slots), sl.net.shard, sl.ep != ep)
	}
}

// scriptInjector rules by destination name: drop everything to a "…drop"
// address, duplicate everything to a "…dup" one a millisecond later, and
// count what it judged.
type scriptInjector struct{ judged int }

func (s *scriptInjector) Judge(_ time.Time, _, to transport.Addr) Verdict {
	s.judged++
	switch {
	case strings.HasSuffix(string(to), "drop"):
		return Verdict{Drop: true}
	case strings.HasSuffix(string(to), "dup"):
		return Verdict{DupExtra: time.Millisecond}
	}
	return Verdict{}
}

// TestPartitionInjectorJudgesAtSend: a shard's injector rules on everything
// that shard's endpoints send, whichever shard owns the destination — the
// verdict (drop, duplicate) is applied on the hand-off path exactly as on the
// local one — and on nothing another shard sends.
func TestPartitionInjectorJudgesAtSend(t *testing.T) {
	_, p, l := newTestPartition(t, 2, Config{BaseLatency: time.Millisecond})
	l.Workers = 1 // the handlers below share one map
	var inj [2]scriptInjector
	p.SetInjector(0, &inj[0])
	p.SetInjector(1, &inj[1])
	a := p.Endpoint(0, "a")
	dests := []transport.Addr{"local-drop", "local-dup", "remote-drop", "remote-dup"}
	got := map[transport.Addr]int{}
	for i, addr := range dests {
		addr := addr
		p.Endpoint(i/2, addr).SetHandler(func(transport.Addr, []byte) { got[addr]++ })
	}
	for _, to := range dests {
		if err := a.Send(to, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	l.RunFor(50 * time.Millisecond)
	if inj[0].judged != 4 || inj[1].judged != 0 {
		t.Errorf("judged %d on the sending shard and %d on the other, want 4 and 0", inj[0].judged, inj[1].judged)
	}
	if got["local-drop"] != 0 || got["local-dup"] != 2 || got["remote-drop"] != 0 || got["remote-dup"] != 2 {
		t.Errorf("deliveries %v, want drops dropped and dups doubled on both paths", got)
	}
	if sent, delivered, dropped := p.Stats(); sent != 4 || delivered != 4 || dropped != 2 {
		t.Errorf("stats sent=%d delivered=%d dropped=%d, want 4/4/2", sent, delivered, dropped)
	}
}
