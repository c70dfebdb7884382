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
			if h, ok := s.addrs.handleBytes(a); ok && string(s.addrs.items[h]) != string(a) {
				t.Fatalf("handle %d of %s reads back %s", h, a, s.addrs.items[h])
			}
		}
		return len(s.addrs.items)
	}
	sized := NewScratch(population)
	if got := booked(sized); got != population {
		t.Errorf("sized scratch booked %d of %d addresses", got, population)
	}
	for i, a := range [][]byte{addrs[0], addrs[population-1]} {
		want := uint32(i * (population - 1))
		if h, ok := sized.addrs.handleBytes(a); !ok || h != want {
			t.Errorf("%s: handle %d, %v; want %d", a, h, ok, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { sized.addrs.handleBytes(a) }); allocs != 0 {
			t.Errorf("re-booking %s allocates %v times", a, allocs)
		}
	}
	private := NewScratch(0)
	if got := booked(private); got != defaultBookAddrs {
		t.Errorf("private scratch booked %d addresses, want the default bound %d", got, defaultBookAddrs)
	}
	if _, ok := private.addrs.handle(transport.Addr(addrs[population-1])); ok {
		t.Error("a full book gave a new address a handle")
	}
	if sized.ids.max != 0 || private.ids.max != 0 {
		t.Errorf("ID books bounded at %d and %d before SetPopulation, want 0", sized.ids.max, private.ids.max)
	}
}

// TestForgedIDsGrowNoBook: pings from IDs no node has — an eclipse forger's
// flood — enter a node's table and replacement caches with their IDs in the
// table's spill slots, which leave with their entries. A loop given its
// population books exactly it, and one never told its population books no
// ID, however many IDs are forged.
func TestForgedIDsGrowNoBook(t *testing.T) {
	rng := stats.NewRNG(11)
	population := make([]ID, 8)
	for i := range population {
		population[i] = RandomID(rng)
	}
	for _, booked := range []bool{true, false} {
		t.Run(fmt.Sprintf("booked=%v", booked), func(t *testing.T) {
			scratch := NewScratch(len(population))
			if booked {
				scratch.SetPopulation(NewPopulation(slices.Clone(population)))
			}
			s := sim.NewSimulator()
			net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Seed: 1})
			victim, err := NewNode(Config{ID: population[0], Endpoint: net.Endpoint("victim"), Clock: s, Table: TablePingEvict, Scratch: scratch})
			if err != nil {
				t.Fatal(err)
			}
			honest := Contact{ID: population[1], Addr: "honest"}
			victim.Table().Observe(honest)
			for i := 1; i <= 4000; i++ {
				ping := Message{Kind: KindPing, RPCID: uint64(i), From: Contact{ID: RandomID(rng), Addr: "forger"}}
				wire, err := ping.AppendEncode(nil)
				if err != nil {
					t.Fatal(err)
				}
				victim.Receive("forger", wire)
				if i%500 == 0 {
					s.RunFor(10 * time.Second) // probes of "forger" time out: entries leave, spares move up
				}
			}
			want := 0
			if booked {
				want = len(population)
				for i, id := range population {
					if h, ok := scratch.ids.index[id]; !ok || scratch.ids.items[h] != id {
						t.Errorf("population[%d] has handle %d, %v", i, h, ok)
					}
				}
			}
			if got := len(scratch.ids.items); got != want || scratch.ids.max != want {
				t.Errorf("ID book holds %d IDs, bound %d; want %d", got, scratch.ids.max, want)
			}
			table := victim.Table()
			// Every spilled ID is a forged one, or any one on the loop that
			// booked none, and has its one record.
			forged, spilledIDs, wantSpilled := 0, 0, 0
			visit := func(e *bucketEntry) {
				if table.idOf(e) != honest.ID {
					forged++
				}
				if table.idOf(e) != honest.ID || !booked {
					wantSpilled++
				}
				if e.id&spilled != 0 {
					spilledIDs++
				}
			}
			for i := range table.entries {
				visit(&table.entries[i])
			}
			for _, eb := range table.evict {
				for i := range eb.spare {
					visit(&eb.spare[i])
				}
			}
			if forged == 0 {
				t.Fatal("no forged contact entered the table")
			}
			if spilledIDs != wantSpilled || spills(table) != wantSpilled {
				t.Errorf("%d of %d forged entries spilled, %d spill slots in use; want %d", spilledIDs, forged, spills(table), wantSpilled)
			}
		})
	}
}

// privateBooks returns books for a standalone table that hold at most max IDs
// and max addresses.
func privateBooks(max int) *books {
	b := newBooks(max)
	return &b
}

// inBucket returns a contact at addr whose ID lands in bucket idx of the zero
// self ID, told apart by n.
func inBucket(idx int, n byte, addr transport.Addr) Contact {
	var id ID
	id[idx/8] = 0x80 >> (idx % 8)
	id[IDBytes-1] = n
	return Contact{ID: id, Addr: addr}
}

// spills counts what table keeps of its entries itself: the spilled-ID slots
// in use and the spilled addresses.
func spills(table *Table) int {
	if table.spill == nil {
		return 0
	}
	return len(table.spill.ids) - len(table.spill.free) + len(table.spill.addrs)
}

// checkSpills holds table to want, every contact it should track (live or in
// a replacement cache) at its true address: its entries, Each, AppendClosest
// and the wire form report each at its true ID and address. Each spilled ID
// has a slot of its own, every other slot is free once, and the spilled
// addresses are exactly those of the entries whose addr handle is spilled.
func checkSpills(t *testing.T, table *Table, want map[ID]transport.Addr) {
	t.Helper()
	tracked := map[ID]bool{}
	idSlots, addrKeys := map[uint32]bool{}, map[uint32]bool{}
	visit := func(e *bucketEntry) {
		id := table.idOf(e)
		tracked[id] = true
		if e.id&spilled != 0 {
			if idSlots[e.id&^spilled] {
				t.Errorf("entry %s shares spill slot %d", id.Short(), e.id&^spilled)
			}
			idSlots[e.id&^spilled] = true
		}
		if e.addr == spilled {
			addrKeys[e.id] = true
		}
		if got, ok := want[id]; !ok || table.addrOf(e) != got {
			t.Errorf("entry %s reports %q, want %q (tracked: %v)", id.Short(), table.addrOf(e), got, ok)
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
	if len(idSlots)+len(addrKeys) == 0 {
		t.Error("no entry spilled: a book's bound was never reached")
	}
	sp := table.spill
	if sp == nil {
		sp = new(spillSlots)
	}
	free := map[uint32]bool{}
	for _, slot := range sp.free {
		if free[slot] || idSlots[slot] {
			t.Errorf("spill slot %d is free twice, or free and in use", slot)
		}
		free[slot] = true
	}
	if len(idSlots)+len(free) != len(sp.ids) {
		t.Errorf("%d spill slots: %d in use, %d free", len(sp.ids), len(idSlots), len(free))
	}
	if len(sp.addrs) != len(addrKeys) {
		t.Errorf("%d spilled addresses for %d entries", len(sp.addrs), len(addrKeys))
	}
	for h := range sp.addrs {
		if !addrKeys[h] {
			t.Errorf("spilled address of %#x outlived its entry", h)
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
	wire, _ := table.appendClosestWire(nil, ID{}, 1000)
	for len(wire) > 0 {
		id, addr, rest, ok := nextContact(wire)
		if !ok {
			t.Fatal("wire form ends inside a record")
		}
		if want[ID(id)] != transport.Addr(addr) {
			t.Errorf("wire form lists %s at %q, want %q", ID(id).Short(), addr, want[ID(id)])
		}
		wire = rest
	}
}

// TestAddrBookAtBound: past its bound the book gives a new address no
// handle, and whoever holds the address keeps it in a spill record instead —
// a table by the entry's id handle, a lookup in its spill list. Every entry
// still reports its true address, on every path an address leaves by, and no
// spill record outlives its entry.
func TestAddrBookAtBound(t *testing.T) {
	const bound = 4
	bounded := func() *Scratch {
		s := NewScratch(0)
		s.addrs.max = bound
		return s
	}

	t.Run("ping-evict table", func(t *testing.T) {
		s := bounded()
		now := time.Unix(1000, 0)
		table := NewTable(ID{}, 3, 10*time.Minute, func() time.Time { return now })
		table.book = &s.books
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
			observe(inBucket(0, i, transport.Addr(fmt.Sprintf("zero-%d", i))), false)
			observe(inBucket(1, i, transport.Addr(fmt.Sprintf("one-%d", i))), false)
		}
		checkSpills(t, table, want)
		// An unverified claim moves nothing; a verified reply re-points, to a
		// new address (spilled: the book is full) and back into the book.
		table.Observe(inBucket(0, 1, "forged"))
		observe(inBucket(0, 1, "moved"), true)
		observe(inBucket(1, 3, "zero-2"), true)
		checkSpills(t, table, want)
		// A full bucket 0: four newcomers wait as spares, capped at k = 3, so
		// the oldest is evicted from the cache; one is re-pointed in place.
		for i := byte(4); i <= 7; i++ {
			observe(inBucket(0, i, transport.Addr(fmt.Sprintf("spare-%d", i))), false)
		}
		delete(want, inBucket(0, 4, "").ID)
		observe(inBucket(0, 6, "spare-moved"), true)
		if len(probed) != 1 {
			t.Fatalf("%d probes for one full bucket, want 1", len(probed))
		}
		checkSpills(t, table, want)
		// The probed entry dies: Remove, then the probe's verdict promotes the
		// newest spare. Then a spare is removed outright.
		table.Remove(probed[0])
		delete(want, probed[0])
		table.probeDone(probed[0], false)
		checkSpills(t, table, want)
		table.Remove(inBucket(0, 5, "").ID)
		delete(want, inBucket(0, 5, "").ID)
		checkSpills(t, table, want)
		for id := range want {
			table.Remove(id)
		}
		if spills(table) != 0 || table.Len() != 0 {
			t.Errorf("an emptied table keeps %d spill records, %d entries", spills(table), table.Len())
		}
	})

	t.Run("naive table", func(t *testing.T) {
		s := bounded()
		now := time.Unix(1000, 0)
		table := NewTable(ID{}, 2, 10*time.Minute, func() time.Time { return now })
		table.book = &s.books
		want := map[ID]transport.Addr{}
		observe := func(idx int, n byte, tag string) {
			c := inBucket(idx, n, transport.Addr(fmt.Sprintf("%s-%d", tag, n)))
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
		delete(want, inBucket(1, 3, "").ID)
		checkSpills(t, table, want)
		// Stale replacement: the spilled LRU of bucket 0 leaves, its record too.
		now = now.Add(time.Hour)
		c := inBucket(0, 3, "zero-3")
		table.Observe(c)
		delete(want, inBucket(0, 1, "").ID)
		want[c.ID] = c.Addr
		checkSpills(t, table, want)
	})

	t.Run("lookup", func(t *testing.T) {
		rig := newResponseRig(t, stats.NewRNG(21))
		rig.node.cfg.Scratch.addrs.max = bound
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

// TestIDBookAtBound: past its bound the ID book gives a new ID no handle,
// and the table keeps the ID in its spill slots instead. A table whose ID book
// holds three IDs decides everything exactly as the same table with room for
// every ID — the same entries and spares in the same order, the same probes,
// the same selections — through insert, refresh, verified re-point, Remove,
// naive stale replacement and ping-evict spare promotion, and no spill record
// outlives its entry.
func TestIDBookAtBound(t *testing.T) {
	for _, policy := range []TablePolicy{TableNaive, TablePingEvict} {
		t.Run(policy.String(), func(t *testing.T) {
			now := time.Unix(1000, 0)
			type arm struct {
				table  *Table
				probed []ID
			}
			newArm := func(ids int) *arm {
				a := &arm{table: NewTable(ID{}, 3, 10*time.Minute, func() time.Time { return now })}
				a.table.book = privateBooks(defaultBookAddrs)
				a.table.book.ids.max = ids
				a.table.SetPolicy(policy)
				a.table.SetPinger(func(c Contact, _ func(alive bool)) { a.probed = append(a.probed, c.ID) })
				return a
			}
			bounded, roomy := newArm(3), newArm(defaultBookAddrs)
			each := func(f func(*Table)) {
				f(bounded.table)
				f(roomy.table)
			}
			observe := func(c Contact, verified bool) {
				each(func(table *Table) {
					if verified {
						table.ObserveVerified(c)
					} else {
						table.Observe(c)
					}
				})
			}
			// compare holds the bounded table to the roomy one, whose
			// contents are the truth: it spills nothing.
			compare := func(step string) {
				t.Helper()
				if got, want := dumpBuckets(bounded.table), dumpBuckets(roomy.table); got != want {
					t.Fatalf("%s: bounded table\n%s\nroomy table\n%s", step, got, want)
				}
				if !slices.Equal(bounded.probed, roomy.probed) {
					t.Fatalf("%s: bounded table probed %v, roomy %v", step, bounded.probed, roomy.probed)
				}
				if spills(roomy.table) != 0 {
					t.Fatalf("%s: the roomy table spilled", step)
				}
				want := map[ID]transport.Addr{}
				roomy.table.Each(func(c Contact) { want[c.ID] = c.Addr })
				for _, eb := range roomy.table.evict {
					for i := range eb.spare {
						c := roomy.table.contactOf(&eb.spare[i])
						want[c.ID] = c.Addr
					}
				}
				for _, target := range []ID{{}, inBucket(0, 9, "").ID, inBucket(2, 1, "").ID} {
					if got, want := bounded.table.Closest(target, 5), roomy.table.Closest(target, 5); !slices.Equal(got, want) {
						t.Fatalf("%s: Closest(%s) = %v, roomy %v", step, target.Short(), got, want)
					}
				}
				checkSpills(t, bounded.table, want)
			}
			// Insert: eight IDs into a book of three.
			for n := byte(1); n <= 3; n++ {
				observe(inBucket(0, n, transport.Addr(fmt.Sprintf("zero-%d", n))), false)
				observe(inBucket(1, n, transport.Addr(fmt.Sprintf("one-%d", n))), false)
			}
			observe(inBucket(2, 1, "two-1"), false)
			observe(inBucket(2, 2, "two-2"), false)
			compare("insert")
			// Refresh a booked and a spilled ID: each moves to its bucket's tail.
			now = now.Add(time.Second)
			observe(inBucket(0, 1, "forged"), false)
			observe(inBucket(1, 3, "forged"), false)
			compare("refresh")
			// Verified re-point of a booked and a spilled ID.
			observe(inBucket(0, 1, "zero-1-moved"), true)
			observe(inBucket(2, 2, "two-2-moved"), true)
			compare("re-point")
			// Remove a booked and a spilled ID; then one that is not tracked.
			each(func(table *Table) {
				table.Remove(inBucket(1, 1, "").ID)
				table.Remove(inBucket(2, 1, "").ID)
				table.Remove(inBucket(3, 1, "").ID)
			})
			compare("remove")
			// A full bucket 0 meets newcomers an hour on: the naive table
			// replaces its stale LRU with each; the ping-evict table keeps
			// them as spares, one re-pointed, and probes its LRU once.
			now = now.Add(time.Hour)
			for n := byte(4); n <= 6; n++ {
				observe(inBucket(0, n, transport.Addr(fmt.Sprintf("zero-%d", n))), false)
			}
			observe(inBucket(0, 5, "zero-5-moved"), true)
			compare("full bucket")
			if policy == TablePingEvict {
				if len(roomy.probed) != 1 {
					t.Fatalf("%d probes for one full bucket, want 1", len(roomy.probed))
				}
				// The probed entry dies: the newest spare takes its place.
				// Then a spare is removed outright.
				each(func(table *Table) {
					table.Remove(roomy.probed[0])
					table.probeDone(roomy.probed[0], false)
				})
				compare("promote")
				each(func(table *Table) { table.Remove(inBucket(0, 4, "").ID) })
				compare("remove spare")
			}
			var ids []ID
			roomy.table.Each(func(c Contact) { ids = append(ids, c.ID) })
			for _, eb := range roomy.table.evict {
				for i := range eb.spare {
					ids = append(ids, roomy.table.idOf(&eb.spare[i]))
				}
			}
			each(func(table *Table) {
				for _, id := range ids {
					table.Remove(id)
				}
			})
			if spills(bounded.table) != 0 || bounded.table.Len() != 0 {
				t.Errorf("an emptied table keeps %d spill records, %d entries", spills(bounded.table), bounded.table.Len())
			}
		})
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
