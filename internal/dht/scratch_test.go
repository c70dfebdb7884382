package dht

import (
	"fmt"
	"slices"
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
func scratchRun(t *testing.T, scratch *Scratch, retry int) string {
	t.Helper()
	const n = 24
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{
		BaseLatency: 5 * time.Millisecond,
		Jitter:      3 * time.Millisecond,
		Seed:        17,
	})
	net.SetInjector(&lossInjector{rng: stats.NewRNG(17), rate: 0.05})
	rng := stats.NewRNG(5150)
	var log strings.Builder
	spawn := func(i int, id ID) *Node {
		ep := tapEndpoint{Endpoint: net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i))), clock: s, log: &log}
		onApp := appFunc(func(from Contact, payload []byte) {
			fmt.Fprintf(&log, "app %s<-%s %q\n", id.Short(), from.ID.Short(), payload)
		})
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
	sendToOwners(nodes[11], key, "payload", 3)
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
	for _, retry := range []int{0, 3} {
		private := scratchRun(t, nil, retry)
		shared := scratchRun(t, NewScratch(24), retry)
		if private != shared {
			a, b := strings.Split(private, "\n"), strings.Split(shared, "\n")
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			t.Fatalf("retry=%d: traces diverge at line %d (private has %d, shared %d); last common line: %.160s",
				retry, i, len(a), len(b), strings.Join(a[max(i-1, 0):i], ""))
		}
		results, rejoined, delivered := strings.Count(private, "result "), strings.Contains(private, "rejoined"), strings.Contains(private, "app ")
		if results != 24 || !rejoined || !delivered {
			t.Fatalf("retry=%d: run did not complete: %d lookup results, rejoined %v, owner send delivered %v", retry, results, rejoined, delivered)
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

// TestScratchInternerBound: a scratch sized for its population gives every
// address a handle; an unsized one stops admitting at the private default.
// A handle is canonical — the same bytes get the same handle, without
// allocating — and turns back into the address it was given for.
func TestScratchInternerBound(t *testing.T) {
	const population = 70000
	if population <= defaultBookAddrs {
		t.Fatal("population must exceed the default bound to test sizing")
	}
	addrs := make([][]byte, population)
	for i := range addrs {
		addrs[i] = []byte(fmt.Sprintf("node-%d", i))
	}
	booked := func(s *Scratch) int {
		for _, a := range addrs {
			if h, ok := s.handleBytes(a); ok && string(s.addrs[h]) != string(a) {
				t.Fatalf("handle %d of %s reads back %s", h, a, s.addrs[h])
			}
		}
		return len(s.addrs)
	}
	sized := NewScratch(population)
	if got := booked(sized); got != population {
		t.Errorf("sized scratch booked %d of %d addresses", got, population)
	}
	for i, a := range [][]byte{addrs[0], addrs[population-1]} {
		want := uint32(i * (population - 1))
		if h, ok := sized.handleBytes(a); !ok || h != want {
			t.Errorf("%s: handle %d, %v; want %d", a, h, ok, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { sized.handleBytes(a) }); allocs != 0 {
			t.Errorf("re-booking %s allocates %v times", a, allocs)
		}
	}
	private := NewScratch(0)
	if got := booked(private); got != defaultBookAddrs {
		t.Errorf("private scratch booked %d addresses, want the default bound %d", got, defaultBookAddrs)
	}
	if _, ok := private.handle(transport.Addr(addrs[population-1])); ok {
		t.Error("a full book gave a new address a handle")
	}
}

// TestAddrBookAtBound: past its bound the book gives a new address no
// handle, and whoever holds the address keeps it in a spill record instead —
// a table by ID, a lookup in its spill list. Every entry still reports its
// true address, on every path an address leaves by, and no spill record
// outlives its entry.
func TestAddrBookAtBound(t *testing.T) {
	const bound = 4
	bounded := func() *Scratch {
		s := NewScratch(0)
		s.max = bound
		return s
	}
	// in returns a contact at addr whose ID lands in bucket idx of the zero
	// self ID, told apart by n.
	in := func(idx int, n byte, addr transport.Addr) Contact {
		var id ID
		id[idx/8] = 0x80 >> (idx % 8)
		id[IDBytes-1] = n
		return Contact{ID: id, Addr: addr}
	}
	// check holds table to want, every contact it should track (live or in a
	// replacement cache) at its true address: entries, Each and AppendClosest
	// report it, and the spill map holds a record for exactly the spilled
	// entries.
	check := func(t *testing.T, table *Table, want map[ID]transport.Addr) {
		t.Helper()
		tracked := map[ID]bool{}
		spilledIDs := map[ID]bool{}
		visit := func(e *bucketEntry) {
			tracked[e.ID] = true
			if e.addr == spilled {
				spilledIDs[e.ID] = true
			}
			if got := table.addrOf(e); got != want[e.ID] {
				t.Errorf("entry %s reports %q, want %q", e.ID.Short(), got, want[e.ID])
			}
		}
		for i := range table.entries {
			visit(&table.entries[i])
		}
		for idx := 0; idx < IDBits; idx++ {
			if eb := table.evict[idx]; eb != nil {
				for i := range eb.spare {
					visit(&eb.spare[i])
				}
			}
		}
		if len(tracked) != len(want) {
			t.Errorf("table tracks %d contacts, want %d", len(tracked), len(want))
		}
		if len(spilledIDs) == 0 {
			t.Error("no entry spilled: the book's bound was never reached")
		}
		if len(table.spill) != len(spilledIDs) {
			t.Errorf("spill map holds %d records for %d spilled entries", len(table.spill), len(spilledIDs))
		}
		for id := range table.spill {
			if !spilledIDs[id] {
				t.Errorf("spill record for %s outlived its entry", id.Short())
			}
		}
		table.Each(func(c Contact) {
			if c.Addr != want[c.ID] {
				t.Errorf("Each reports %s at %q, want %q", c.ID.Short(), c.Addr, want[c.ID])
			}
		})
		for _, c := range table.Closest(ID{}, 1000) {
			if c.Addr != want[c.ID] {
				t.Errorf("Closest reports %s at %q, want %q", c.ID.Short(), c.Addr, want[c.ID])
			}
		}
	}

	t.Run("ping-evict table", func(t *testing.T) {
		s := bounded()
		now := time.Unix(1000, 0)
		table := NewTable(ID{}, 3, 10*time.Minute, func() time.Time { return now })
		table.book = &s.addrBook
		table.SetPolicy(TablePingEvict)
		var probed []ID
		table.SetPinger(func(c Contact, _ func(alive bool)) { probed = append(probed, c.ID) })
		want := map[ID]transport.Addr{}
		observe := func(c Contact, verified bool) {
			if verified {
				table.ObserveVerified(c)
			} else {
				table.Observe(c)
			}
			if _, ok := want[c.ID]; !ok || verified {
				want[c.ID] = c.Addr
			}
		}
		// Unverified inserts: six addresses into a book of four.
		for i := byte(1); i <= 3; i++ {
			observe(in(0, i, transport.Addr(fmt.Sprintf("zero-%d", i))), false)
			observe(in(1, i, transport.Addr(fmt.Sprintf("one-%d", i))), false)
		}
		check(t, table, want)
		// An unverified claim moves nothing; a verified reply re-points, to a
		// new address (spilled: the book is full) and back into the book.
		table.Observe(in(0, 1, "forged"))
		observe(in(0, 1, "moved"), true)
		observe(in(1, 3, "zero-2"), true)
		check(t, table, want)
		// A full bucket 0: four newcomers wait as spares, capped at k = 3, so
		// the oldest is evicted from the cache; one is re-pointed in place.
		for i := byte(4); i <= 7; i++ {
			observe(in(0, i, transport.Addr(fmt.Sprintf("spare-%d", i))), false)
		}
		delete(want, in(0, 4, "").ID)
		observe(in(0, 6, "spare-moved"), true)
		if len(probed) != 1 {
			t.Fatalf("%d probes for one full bucket, want 1", len(probed))
		}
		check(t, table, want)
		// The probed entry dies: Remove, then the probe's verdict promotes the
		// newest spare. Then a spare is removed outright.
		table.Remove(probed[0])
		delete(want, probed[0])
		table.probeDone(probed[0], false)
		check(t, table, want)
		table.Remove(in(0, 5, "").ID)
		delete(want, in(0, 5, "").ID)
		check(t, table, want)
		for id := range want {
			table.Remove(id)
		}
		if len(table.spill) != 0 || table.Len() != 0 {
			t.Errorf("an emptied table keeps %d spill records, %d entries", len(table.spill), table.Len())
		}
	})

	t.Run("naive table", func(t *testing.T) {
		s := bounded()
		now := time.Unix(1000, 0)
		table := NewTable(ID{}, 2, 10*time.Minute, func() time.Time { return now })
		table.book = &s.addrBook
		want := map[ID]transport.Addr{}
		observe := func(idx int, n byte, tag string) {
			c := in(idx, n, transport.Addr(fmt.Sprintf("%s-%d", tag, n)))
			table.Observe(c)
			want[c.ID] = c.Addr
		}
		// Four addresses fill the book; bucket 0's two spill.
		for n := byte(1); n <= 2; n++ {
			observe(1, n, "one")
			observe(2, n, "two")
		}
		for n := byte(1); n <= 2; n++ {
			observe(0, n, "zero")
		}
		// A newcomer to a full, fresh bucket is dropped without a record.
		observe(1, 3, "one")
		delete(want, in(1, 3, "").ID)
		check(t, table, want)
		// Stale replacement: the spilled LRU of bucket 0 leaves, its record too.
		now = now.Add(time.Hour)
		c := in(0, 3, "zero-3")
		table.Observe(c)
		delete(want, in(0, 1, "").ID)
		want[c.ID] = c.Addr
		check(t, table, want)
	})

	t.Run("lookup", func(t *testing.T) {
		rig := newResponseRig(t, stats.NewRNG(21))
		rig.node.cfg.Scratch.max = bound
		oracle := randomContacts(stats.NewRNG(22), 2*bucketK, "peer")
		rig.feed(rig.response(t, oracle))
		ls := rig.ls
		if len(ls.spill) != len(oracle)-bound {
			t.Fatalf("%d of %d new addresses spilled past a book of %d", len(ls.spill), len(oracle), bound)
		}
		sortByDistance(ls.target, oracle)
		checkShortlist(t, ls, oracle)

		// A lookup that starts from a table with spilled entries copies their
		// addresses into its own spill list.
		table := rig.node.table
		for _, c := range oracle {
			table.ObserveVerified(c)
		}
		boot := rig.node.cfg.Scratch.lookups.Get()
		boot.node, boot.target = rig.node, RandomID(stats.NewRNG(23))
		table.appendClosestRanked(boot, bucketK)
		if len(boot.spill) == 0 {
			t.Fatal("no bootstrap entry spilled")
		}
		want := table.Closest(boot.target, bucketK)
		for i := range boot.shortlist {
			if got := boot.shortlist[i].contact(boot); got != want[i] {
				t.Errorf("bootstrap entry %d = %v, want %v", i, got, want[i])
			}
		}

		// release clears the spill list, keeping its capacity.
		for _, l := range []*lookupState{ls, boot} {
			l.release()
			if len(l.spill) != 0 || cap(l.spill) == 0 || slices.ContainsFunc(l.spill[:cap(l.spill)], func(a transport.Addr) bool { return a != "" }) {
				t.Errorf("a released lookup keeps %d spill records (capacity %d, not cleared)", len(l.spill), cap(l.spill))
			}
		}
	})
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
		OnApp: appFunc(func(Contact, []byte) {
			defer func() { recovered = recover() }()
			b.Receive("x", wire) // synchronous cross-node delivery: the bug
		}),
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
	b.Receive("x", wire)
}
