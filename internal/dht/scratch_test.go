package dht

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// tapEndpoint records every datagram a node sends: when, from, to, bytes.
type tapEndpoint struct {
	transport.Endpoint
	clock sim.Clock
	log   *strings.Builder
}

func (e tapEndpoint) Send(to transport.Addr, payload []byte) error {
	fmt.Fprintf(e.log, "%d %s>%s %x\n", e.clock.Now().UnixNano(), e.Addr(), to, payload)
	return e.Endpoint.Send(to, payload)
}

// lossInjector drops each datagram with probability rate, drawn from its own
// seeded stream.
type lossInjector struct {
	rng  *stats.RNG
	rate float64
}

func (l *lossInjector) Judge(time.Time, transport.Addr, transport.Addr) simnet.Verdict {
	return simnet.Verdict{Drop: l.rng.Bool(l.rate)}
}

// scratchRun drives a small lossy DHT through joins, lookups, an owner send,
// a node death and its same-ID same-address replacement, and returns the
// full datagram trace plus every lookup result and app delivery. scratch is
// handed to every node; nil gives each its own.
func scratchRun(t *testing.T, scratch *Scratch, retry RetryPolicy) string {
	t.Helper()
	const n = 24
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{
		BaseLatency: 5 * time.Millisecond,
		Jitter:      3 * time.Millisecond,
		Seed:        17,
		Inject:      &lossInjector{rng: stats.NewRNG(17), rate: 0.05},
	})
	rng := stats.NewRNG(5150)
	var log strings.Builder
	spawn := func(i int, id ID) *Node {
		ep := tapEndpoint{Endpoint: net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i))), clock: s, log: &log}
		onApp := func(from Contact, payload []byte) {
			fmt.Fprintf(&log, "app %s<-%s %q\n", id.Short(), from.ID.Short(), payload)
		}
		node, err := NewNode(Config{ID: id, Endpoint: ep, Clock: s, Retry: retry, Scratch: scratch, OnApp: onApp})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = spawn(i, RandomID(rng))
	}
	seed := []Contact{nodes[0].Contact()}
	for _, node := range nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	s.RunFor(time.Minute)

	lookups := func(round string) {
		for i := 0; i < 12; i++ {
			from := nodes[1+rng.Uint64n(n-1)]
			target := RandomID(rng)
			tag := fmt.Sprintf("%s/%d", round, i)
			from.Lookup(target, func(cs []Contact) {
				fmt.Fprintf(&log, "result %s %v\n", tag, cs)
			})
		}
		s.RunFor(time.Minute)
	}
	lookups("warm")

	key := IDFromKey([]byte("scratch-key"))
	nodes[11].SendToOwners(key, []byte("payload"), 3, func(owner Contact, err error) {
		fmt.Fprintf(&log, "owner %s %v\n", owner.ID.Short(), err)
	})
	s.RunFor(time.Minute)

	// Churn: node 7 dies mid-lookup and a wiped replacement takes over its
	// identifier and address within the same instant, as Network.join does.
	nodes[7].Lookup(RandomID(rng), func(cs []Contact) { fmt.Fprintf(&log, "dying %v\n", cs) })
	id := nodes[7].ID()
	if err := nodes[7].Close(); err != nil {
		t.Fatal(err)
	}
	nodes[7] = spawn(7, id)
	nodes[7].Bootstrap(seed, func(known int) { fmt.Fprintf(&log, "rejoined %d\n", known) })
	lookups("churned")
	return log.String()
}

// TestSharedScratchIsUnobservable: which Scratch a node uses decides who
// pays for its working memory and nothing else — the same seed yields the
// same datagrams, at the same instants, and the same lookup results and app
// deliveries whether every node shares one Scratch or owns a private one.
func TestSharedScratchIsUnobservable(t *testing.T) {
	for _, retry := range []RetryPolicy{{}, {Attempts: 3}} {
		private := scratchRun(t, nil, retry)
		shared := scratchRun(t, NewScratch(24), retry)
		if private != shared {
			a, b := strings.Split(private, "\n"), strings.Split(shared, "\n")
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			t.Fatalf("retry=%d: traces diverge at line %d (private has %d, shared %d); last common line: %.160s",
				retry.Attempts, i, len(a), len(b), strings.Join(a[max(i-1, 0):i], ""))
		}
		results, rejoined, delivered := strings.Count(private, "result "), strings.Contains(private, "rejoined"), strings.Contains(private, "app ")
		if results != 24 || !rejoined || !delivered {
			t.Fatalf("retry=%d: run did not complete: %d lookup results, rejoined %v, owner send delivered %v", retry.Attempts, results, rejoined, delivered)
		}
	}
}

// TestScratchFreelistsBounded: a burst far above the bounds drains to
// freelists no longer than the bounds — the surplus is garbage, not pinned —
// and afterwards a lookup on the warmed scratch allocates nothing.
func TestScratchFreelistsBounded(t *testing.T) {
	const n = 40
	scratch := NewScratch(n)
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 99})
	rng := stats.NewRNG(1234)
	nodes := make([]*Node, n)
	for i := range nodes {
		node, err := NewNode(Config{
			ID:       RandomID(rng),
			Endpoint: net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i))),
			Clock:    s,
			Table:    TableNaive, // ping-evict probes allocate their closures
			Scratch:  scratch,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	seed := []Contact{nodes[0].Contact()}
	for _, node := range nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	s.Run()

	burst := 10 * maxFreeLookups
	done := 0
	for i := 0; i < burst; i++ {
		nodes[i%n].Lookup(RandomID(rng), func([]Contact) { done++ })
	}
	s.Run()
	if done != burst {
		t.Fatalf("%d of %d burst lookups finished", done, burst)
	}
	if got := scratch.lookups.Len(); got != maxFreeLookups {
		t.Errorf("lookup freelist holds %d states after a %d-lookup burst, want the bound %d", got, burst, maxFreeLookups)
	}
	if got := scratch.rpcs.Len(); got != maxFreePending {
		t.Errorf("RPC freelist holds %d records after the burst, want the bound %d", got, maxFreePending)
	}
	if got := scratch.queries.Len(); got == 0 || got > maxFreeQueries {
		t.Errorf("lookup query freelist holds %d records after the burst, want 1..%d", got, maxFreeQueries)
	}
	// Wire buffers are held only across one Endpoint.Send, so a loop of
	// nodes that only look things up shares a single one.
	if got := scratch.bufs.Len(); got != 1 {
		t.Errorf("buffer list holds %d buffers after lookups only, want the one wire buffer", got)
	}
	if scratch.rx.contacts.region != nil {
		t.Error("the scratch Message still views the last response's datagram after its handler returned")
	}

	// Any node, including one that has never run a lookup of its own beyond
	// bootstrap, now finds warmed state on the loop's scratch.
	target := RandomID(rng)
	noop := func([]Contact) {}
	lookup := func() {
		nodes[n-1].Lookup(target, noop)
		s.Run()
	}
	lookup() // settle timer-wheel and delivery-record capacity
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, lookup); allocs != 0 {
		t.Errorf("a lookup on a warmed scratch allocates %v times, want 0", allocs)
	}
}

// TestScratchInternerBound: a scratch sized for its population canonicalises
// every address; an unsized one stops admitting at the private default.
func TestScratchInternerBound(t *testing.T) {
	const population = 70000
	if population <= defaultInternedAddrs {
		t.Fatal("population must exceed the default bound to test sizing")
	}
	addrs := make([][]byte, population)
	for i := range addrs {
		addrs[i] = []byte(fmt.Sprintf("node-%d", i))
	}
	interned := func(s *Scratch) int {
		for _, a := range addrs {
			s.intern(a)
		}
		return len(s.addrs)
	}
	sized := NewScratch(population)
	if got := interned(sized); got != population {
		t.Errorf("sized scratch interned %d of %d addresses", got, population)
	}
	// Canonical: a second decode of the same bytes returns the same string
	// without allocating, first address and last alike.
	for _, a := range [][]byte{addrs[0], addrs[population-1]} {
		if allocs := testing.AllocsPerRun(10, func() { sized.intern(a) }); allocs != 0 {
			t.Errorf("re-interning %s allocates %v times", a, allocs)
		}
	}
	private := NewScratch(0)
	if got := interned(private); got != defaultInternedAddrs {
		t.Errorf("private scratch interned %d addresses, want the default bound %d", got, defaultInternedAddrs)
	}
	if got := private.intern(addrs[population-1]); string(got) != string(addrs[population-1]) {
		t.Errorf("past the bound intern returned %q", got)
	}
}

// TestScratchReentryPanics: a handler entered while another node on the same
// Scratch is mid-dispatch — what sharing one Scratch across dispatch contexts,
// or a transport delivering synchronously from Send, would produce — fails
// loudly instead of decoding over the message being dispatched.
func TestScratchReentryPanics(t *testing.T) {
	scratch := NewScratch(0)
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Seed: 1})
	rng := stats.NewRNG(7)
	var b *Node
	ping := Message{Kind: KindPing, RPCID: 1, From: Contact{ID: RandomID(rng), Addr: "x"}}
	wire, err := ping.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	var recovered any
	a, err := NewNode(Config{
		ID: RandomID(rng), Endpoint: net.Endpoint("a"), Clock: s, Scratch: scratch,
		OnApp: func(Contact, []byte) {
			defer func() { recovered = recover() }()
			b.handle("x", wire) // synchronous cross-node delivery: the bug
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewNode(Config{ID: RandomID(rng), Endpoint: net.Endpoint("b"), Clock: s, Scratch: scratch})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SendApp(a.Contact(), []byte("trip")); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if recovered == nil {
		t.Fatal("re-entering a busy Scratch did not panic")
	}
	// The guard reopens once the outer dispatch returns: serial use goes on.
	b.handle("x", wire)
}
