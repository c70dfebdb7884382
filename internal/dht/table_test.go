package dht

import (
	"bytes"
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

func newTestTable(k int) (*Table, *time.Time) {
	now := time.Unix(1000, 0)
	self := IDFromKey([]byte("self"))
	table := NewTable(self, k, 10*time.Minute, func() time.Time { return now })
	return table, &now
}

func TestTableObserveAndClosest(t *testing.T) {
	table, _ := newTestTable(20)
	var contacts []Contact
	for i := 0; i < 50; i++ {
		c := Contact{ID: IDFromKey([]byte(fmt.Sprintf("n%d", i)))}
		contacts = append(contacts, c)
		table.Observe(c)
	}
	if table.Len() == 0 {
		t.Fatal("table empty after observes")
	}
	target := IDFromKey([]byte("target"))
	closest := table.Closest(target, 10)
	if len(closest) != 10 {
		t.Fatalf("Closest returned %d", len(closest))
	}
	// Verify ordering.
	for i := 1; i < len(closest); i++ {
		if target.CloserTo(closest[i].ID, closest[i-1].ID) {
			t.Fatal("Closest not sorted by distance")
		}
	}
	// Verify they are genuinely the closest among all tracked contacts.
	tracked := table.Closest(target, 1000)
	for i := 1; i < len(tracked); i++ {
		if target.CloserTo(tracked[i].ID, tracked[i-1].ID) {
			t.Fatal("full listing not sorted")
		}
	}
}

func TestTableNeverTracksSelf(t *testing.T) {
	table, _ := newTestTable(20)
	table.Observe(Contact{ID: IDFromKey([]byte("self"))})
	if table.Len() != 0 {
		t.Error("table tracked self")
	}
}

func TestTableRefreshMovesToTail(t *testing.T) {
	table, _ := newTestTable(20)
	a := Contact{ID: IDFromKey([]byte("a")), Addr: "addr-1"}
	table.Observe(a)
	a.Addr = "addr-2"
	table.Observe(a)
	if table.Len() != 1 {
		t.Fatalf("duplicate observe inflated table to %d", table.Len())
	}
	// An unverified observation refreshes liveness but must NOT re-point the
	// tracked address: a forged From would otherwise hijack the entry.
	got := table.Closest(a.ID, 1)
	if got[0].Addr != "addr-1" {
		t.Errorf("unverified observe hijacked address: %v", got[0].Addr)
	}
	// A verified observation (matched RPC reply) is allowed to update it.
	table.ObserveVerified(a)
	got = table.Closest(a.ID, 1)
	if got[0].Addr != "addr-2" {
		t.Errorf("verified observe did not update address: %v", got[0].Addr)
	}
}

func TestTableBucketFullDropsNewcomer(t *testing.T) {
	// Fill one bucket with fresh entries; a newcomer to the same bucket
	// must be dropped while existing entries are fresh.
	self := ID{}
	now := time.Unix(1000, 0)
	table := NewTable(self, 2, 10*time.Minute, func() time.Time { return now })
	// All IDs with top bit set share bucket 0.
	mk := func(b byte) Contact {
		var id ID
		id[0] = 0x80
		id[IDBytes-1] = b
		return Contact{ID: id}
	}
	table.Observe(mk(1))
	table.Observe(mk(2))
	table.Observe(mk(3)) // bucket full, entries fresh -> dropped
	if table.Len() != 2 {
		t.Fatalf("Len = %d", table.Len())
	}
	if table.Contains(mk(3).ID) {
		t.Error("newcomer admitted to full fresh bucket")
	}
}

func TestTableBucketEvictsStale(t *testing.T) {
	self := ID{}
	now := time.Unix(1000, 0)
	table := NewTable(self, 2, 10*time.Minute, func() time.Time { return now })
	mk := func(b byte) Contact {
		var id ID
		id[0] = 0x80
		id[IDBytes-1] = b
		return Contact{ID: id}
	}
	table.Observe(mk(1))
	table.Observe(mk(2))
	now = now.Add(time.Hour) // both stale now
	table.Observe(mk(3))
	if !table.Contains(mk(3).ID) {
		t.Error("newcomer not admitted over stale entry")
	}
	if table.Contains(mk(1).ID) {
		t.Error("stalest entry not evicted")
	}
	if table.Len() != 2 {
		t.Errorf("Len = %d", table.Len())
	}
}

// mkBucket0 builds contacts that all land in bucket 0 of a zero self ID
// (top bit set), distinguished by the low byte.
func mkBucket0(b byte) Contact {
	var id ID
	id[0] = 0x80
	id[IDBytes-1] = b
	return Contact{ID: id, Addr: transport.Addr(fmt.Sprintf("peer-%d", b))}
}

func TestPingEvictFloodNeverEvictsLivePeer(t *testing.T) {
	// Poisoning regression: a forged-contact flood against a full bucket,
	// however fast and however stale the residents look, must never displace
	// a live peer under TablePingEvict.
	self := ID{}
	now := time.Unix(1000, 0)
	table := NewTable(self, 2, 10*time.Minute, func() time.Time { return now })
	table.SetPolicy(TablePingEvict)
	pings := 0
	table.SetPinger(func(c Contact, done func(alive bool)) {
		pings++
		// Every resident is alive; in the real wiring the pong would also
		// refresh the entry via ObserveVerified.
		table.ObserveVerified(c)
		done(true)
	})
	a, b := mkBucket0(1), mkBucket0(2)
	table.Observe(a)
	table.Observe(b)
	for i := 0; i < 100; i++ {
		now = now.Add(time.Hour) // far past any staleness threshold
		table.Observe(mkBucket0(byte(10 + i%200)))
		if !table.Contains(a.ID) || !table.Contains(b.ID) {
			t.Fatalf("live peer evicted by forged flood after %d observes", i+1)
		}
	}
	if pings == 0 {
		t.Fatal("full bucket never probed its LRU entry")
	}
	if table.Len() != 2 {
		t.Fatalf("Len = %d, want 2", table.Len())
	}
}

func TestPingEvictReplacesDeadPeerViaTimeout(t *testing.T) {
	self := ID{}
	now := time.Unix(1000, 0)
	table := NewTable(self, 2, 10*time.Minute, func() time.Time { return now })
	table.SetPolicy(TablePingEvict)
	dead := mkBucket0(1)
	table.SetPinger(func(c Contact, done func(alive bool)) {
		if c.ID == dead.ID {
			// Mimic the node's timeout path: Remove fires first, then the
			// ping callback reports the failure.
			table.Remove(c.ID)
			done(false)
			return
		}
		table.ObserveVerified(c)
		done(true)
	})
	live := mkBucket0(2)
	table.Observe(dead)
	table.Observe(live)
	newcomer := mkBucket0(3)
	table.Observe(newcomer) // probes dead (the LRU), which times out
	if table.Contains(dead.ID) {
		t.Fatal("dead peer survived a failed probe")
	}
	if !table.Contains(live.ID) {
		t.Fatal("live peer lost")
	}
	if !table.Contains(newcomer.ID) {
		t.Fatal("newcomer not promoted from the replacement cache")
	}
}

func TestPingEvictSingleOutstandingProbe(t *testing.T) {
	self := ID{}
	now := time.Unix(1000, 0)
	table := NewTable(self, 2, 10*time.Minute, func() time.Time { return now })
	table.SetPolicy(TablePingEvict)
	var pending []func(alive bool)
	table.SetPinger(func(c Contact, done func(alive bool)) {
		pending = append(pending, done)
	})
	table.Observe(mkBucket0(1))
	table.Observe(mkBucket0(2))
	for i := 0; i < 10; i++ {
		table.Observe(mkBucket0(byte(10 + i)))
	}
	if len(pending) != 1 {
		t.Fatalf("%d concurrent probes for one bucket, want 1", len(pending))
	}
	pending[0](true)
	table.Observe(mkBucket0(50))
	if len(pending) != 2 {
		t.Fatalf("probe slot did not reopen: %d probes", len(pending))
	}
}

// dumpBuckets renders everything observe can change: each bucket's live
// entries and replacement cache in order, with addresses and timestamps, and
// its probing flag.
func dumpBuckets(t *Table) string {
	type dumped struct {
		Contact
		lastSeen int64
	}
	var sb strings.Builder
	for idx := 0; idx < IDBits; idx++ {
		eb := t.evict[idx]
		if !t.occupied.has(idx) && eb == nil {
			continue
		}
		fmt.Fprintf(&sb, "bucket %d probing=%v\n", idx, eb != nil && eb.probing)
		_, lo, hi := t.run(idx)
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&sb, "  live %+v\n", dumped{t.contactOf(&t.entries[i]), t.entries[i].lastSeen})
		}
		for i := 0; eb != nil && i < len(eb.spare); i++ {
			fmt.Fprintf(&sb, "  spare %+v\n", dumped{t.contactOf(&eb.spare[i]), eb.spare[i].lastSeen})
		}
	}
	return sb.String()
}

// TestObserveThenVerifiedEqualsVerified: a matched response used to be
// observed twice at one instant — Observe in handle, ObserveVerified in
// settle. In every bucket state the pair leaves the table, and the probes it
// started, exactly as ObserveVerified alone does, which is why settle now
// makes the single call.
func TestObserveThenVerifiedEqualsVerified(t *testing.T) {
	const k = 2
	resident := func(b byte) Contact { c := mkBucket0(b); c.Addr = "old-" + c.Addr; return c }
	cases := []struct {
		name   string
		policy TablePolicy
		// setup fills the table (its clock starts at *now) and may move the
		// clock; the observed contact is mkBucket0(1) at its current address.
		setup func(table *Table, now *time.Time)
		// probes is how many liveness probes the observation must start, lands
		// where the contact must end up ("live", "spare", or "" for dropped).
		probes int
		lands  string
	}{
		{"present", TableNaive, func(table *Table, now *time.Time) {
			table.ObserveVerified(resident(1)) // tracked at an old address: verified re-points it
			table.Observe(mkBucket0(2))
			*now = now.Add(time.Second)
		}, 0, "live"},
		{"room", TableNaive, func(table *Table, now *time.Time) {
			table.Observe(mkBucket0(2))
		}, 0, "live"},
		{"full naive, LRU stale", TableNaive, func(table *Table, now *time.Time) {
			table.Observe(mkBucket0(2))
			table.Observe(mkBucket0(3))
			*now = now.Add(time.Hour)
		}, 0, "live"},
		{"full naive, LRU fresh", TableNaive, func(table *Table, now *time.Time) {
			table.Observe(mkBucket0(2))
			table.Observe(mkBucket0(3))
		}, 0, ""},
		{"full ping-evict", TablePingEvict, func(table *Table, now *time.Time) {
			table.Observe(mkBucket0(2))
			table.Observe(mkBucket0(3))
		}, 1, "spare"},
		{"full ping-evict, already spare", TablePingEvict, func(table *Table, now *time.Time) {
			table.Observe(mkBucket0(2))
			table.Observe(mkBucket0(3))
			table.Observe(resident(1)) // waits in the cache at an old address, probe outstanding
			table.Observe(mkBucket0(4))
			*now = now.Add(time.Second)
		}, 0, "spare"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(both bool) (string, []ID) {
				now := time.Unix(1000, 0)
				table := NewTable(ID{}, k, 10*time.Minute, func() time.Time { return now })
				table.SetPolicy(tc.policy)
				var probed []ID
				table.SetPinger(func(c Contact, _ func(alive bool)) { probed = append(probed, c.ID) })
				tc.setup(table, &now)
				probed = nil
				if both {
					table.Observe(mkBucket0(1))
				}
				table.ObserveVerified(mkBucket0(1))
				return dumpBuckets(table), probed
			}
			pairState, pairProbes := run(true)
			soleState, soleProbes := run(false)
			if pairState != soleState {
				t.Errorf("Observe;ObserveVerified left\n%s\nObserveVerified alone left\n%s", pairState, soleState)
			}
			if !slices.Equal(pairProbes, soleProbes) || len(soleProbes) != tc.probes {
				t.Errorf("probes started: pair %v, alone %v, want %d", pairProbes, soleProbes, tc.probes)
			}
			if want := tc.lands + " {Contact:{ID:" + mkBucket0(1).ID.String() + " Addr:peer-1}"; tc.lands != "" && !strings.Contains(soleState, want) {
				t.Errorf("observed contact is not %s at its verified address:\n%s", tc.lands, soleState)
			}
		})
	}
}

// modelTable is a deliberately simple reference implementation of both
// policies: per-bucket ordered slices manipulated with the most obvious code,
// and Closest computed by fully sorting all tracked contacts. Its entries'
// addresses are in addrs, by ID, set when an entry is inserted (an
// unverified observation never re-points one). Under pingEvict, spares holds
// each bucket's replacement cache (newest last), probing the buckets with a
// probe outstanding, and probed every ID a probe was started for, in order.
type modelTable struct {
	self       ID
	k          int
	staleAfter time.Duration
	now        func() time.Time
	buckets    map[int][]modelEntry
	addrs      map[ID]transport.Addr

	pingEvict bool
	spares    map[int][]modelEntry
	probing   map[int]bool
	probed    []ID
}

// modelEntry is one contact of the model: its ID and when it was last seen.
type modelEntry struct {
	ID       ID
	lastSeen int64
}

func (m *modelTable) observe(c Contact) {
	idx, ok := m.self.BucketIndex(c.ID)
	if !ok {
		return
	}
	b := m.buckets[idx]
	for i := range b {
		if b[i].ID == c.ID {
			e := b[i]
			e.lastSeen = m.now().UnixNano()
			m.buckets[idx] = append(append(append([]modelEntry{}, b[:i]...), b[i+1:]...), e)
			return
		}
	}
	e := modelEntry{ID: c.ID, lastSeen: m.now().UnixNano()}
	if len(b) < m.k {
		m.buckets[idx] = append(b, e)
	} else if m.pingEvict {
		sp := slices.Clone(m.spares[idx])
		if i := slices.IndexFunc(sp, func(s modelEntry) bool { return s.ID == c.ID }); i >= 0 {
			sp = slices.Delete(sp, i, i+1)
		} else if len(sp) >= m.k {
			sp = sp[1:]
		}
		m.spares[idx] = append(sp, e)
		if !m.probing[idx] {
			m.probing[idx] = true
			m.probed = append(m.probed, b[0].ID)
		}
	} else if m.now().UnixNano()-b[0].lastSeen > int64(m.staleAfter) {
		m.buckets[idx] = append(append([]modelEntry{}, b[1:]...), e)
	} else {
		return
	}
	if m.addrs == nil {
		m.addrs = map[ID]transport.Addr{}
	}
	m.addrs[c.ID] = c.Addr
}

func (m *modelTable) remove(id ID) {
	idx, ok := m.self.BucketIndex(id)
	if !ok {
		return
	}
	b := m.buckets[idx]
	for i := range b {
		if b[i].ID == id {
			m.buckets[idx] = append(append([]modelEntry{}, b[:i]...), b[i+1:]...)
			m.promote(idx)
			return
		}
	}
	sp := m.spares[idx]
	for i := range sp {
		if sp[i].ID == id {
			m.spares[idx] = append(append([]modelEntry{}, sp[:i]...), sp[i+1:]...)
			return
		}
	}
}

// probeDone ends the probe of id's bucket and fills the bucket from its cache.
func (m *modelTable) probeDone(id ID) {
	idx, _ := m.self.BucketIndex(id)
	m.probing[idx] = false
	m.promote(idx)
}

// promote moves spares, newest first, into the free room of bucket idx.
func (m *modelTable) promote(idx int) {
	for len(m.buckets[idx]) < m.k && len(m.spares[idx]) > 0 {
		sp := m.spares[idx]
		m.buckets[idx] = append(m.buckets[idx], sp[len(sp)-1])
		m.spares[idx] = sp[:len(sp)-1]
	}
}

func (m *modelTable) closest(target ID, count int) []Contact {
	var all []Contact
	for _, b := range m.buckets {
		for _, e := range b {
			all = append(all, Contact{ID: e.ID, Addr: m.addrs[e.ID]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return target.CloserTo(all[i].ID, all[j].ID) })
	if len(all) > count {
		all = all[:count]
	}
	return all
}

func TestTableRandomizedAgainstModel(t *testing.T) {
	// Differential test: a random interleaving of Observe, Remove, clock
	// advance, probe completion, wipe and Closest must agree exactly with the
	// model implementation under both policies — the same selections and the
	// same probes — and leave the table's layout whole after every step. The
	// spill runs bound the table's books below the pool's 120 contacts, one
	// book at 25 and the other at 40, so entries of every kind occur: ID and
	// address booked, one of them spilled, both spilled.
	for _, policy := range []TablePolicy{TableNaive, TablePingEvict} {
		for _, bound := range []struct{ ids, addrs int }{{0, 0}, {25, 40}, {40, 25}} {
			name := policy.String()
			if bound.ids > 0 {
				name += fmt.Sprintf("/spill-%d-ids-%d-addrs", bound.ids, bound.addrs)
			}
			t.Run(name, func(t *testing.T) { randomizedAgainstModel(t, policy, bound.ids, bound.addrs) })
		}
	}
}

// randomizedAgainstModel is one run of TestTableRandomizedAgainstModel: under
// policy, with the books bounded at ids IDs and addrs addresses, or the
// private default for zeros.
func randomizedAgainstModel(t *testing.T, policy TablePolicy, ids, addrs int) {
	rng := stats.NewRNG(4242)
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	const k = 3
	table := new(Table)
	if ids > 0 {
		table.book = privateBooks(ids)
		table.book.addrs.max = addrs
	}
	var both, idOnly, addrOnly int
	var model *modelTable
	var probed []ID
	var dones []func(alive bool)
	// reset wipes the table for a new self, as a churn replacement
	// takes it back, and starts a fresh model beside it.
	reset := func() {
		self := RandomID(rng)
		table.wipe(self, k, 10*time.Minute, nowFunc(clock))
		table.SetPolicy(policy)
		table.SetPinger(func(c Contact, done func(alive bool)) {
			probed = append(probed, c.ID)
			dones = append(dones, done)
		})
		model = &modelTable{
			self: self, k: k, staleAfter: 10 * time.Minute, now: clock,
			buckets:   map[int][]modelEntry{},
			pingEvict: policy == TablePingEvict,
			spares:    map[int][]modelEntry{},
			probing:   map[int]bool{},
		}
		probed, dones = nil, nil
	}
	reset()
	pool := make([]Contact, 120)
	for i := range pool {
		pool[i] = Contact{ID: RandomID(rng), Addr: transport.Addr(fmt.Sprintf("addr-%d", i))}
	}
	for op := 0; op < 20000; op++ {
		switch rng.Uint64n(12) {
		case 0:
			now = now.Add(time.Duration(rng.Uint64n(uint64(4 * time.Minute))))
		case 1:
			c := pool[rng.Uint64n(uint64(len(pool)))]
			table.Remove(c.ID)
			model.remove(c.ID)
		case 2:
			checkClosest(t, table, model, RandomID(rng), int(rng.Uint64n(8))+1)
		case 3:
			// Complete the oldest outstanding probe as the node does: a
			// pong refreshes the peer, a timeout removes it first.
			if len(dones) == 0 {
				break
			}
			id, done := probed[len(probed)-len(dones)], dones[0]
			dones = dones[1:]
			c := Contact{ID: id, Addr: model.addrs[id]}
			if alive := rng.Uint64n(2) == 0; alive {
				table.ObserveVerified(c)
				model.observe(c)
				done(true)
			} else {
				table.Remove(id)
				model.remove(id)
				done(false)
			}
			model.probeDone(id)
		case 4:
			if rng.Uint64n(50) == 0 {
				reset()
			}
		default:
			c := pool[rng.Uint64n(uint64(len(pool)))]
			table.Observe(c)
			model.observe(c)
		}
		checkLayout(t, table)
		if !slices.Equal(probed, model.probed) {
			t.Fatalf("op %d: table probed %d contacts, model %d", op, len(probed), len(model.probed))
		}
		for i := range table.entries {
			switch e := &table.entries[i]; {
			case e.id&spilled != 0 && e.addr == spilled:
				both++
			case e.id&spilled != 0:
				idOnly++
			case e.addr == spilled:
				addrOnly++
			}
		}
	}
	if table.Len() == 0 {
		t.Fatal("randomized run tracked nothing")
	}
	if policy == TablePingEvict && len(probed) == 0 {
		t.Fatal("ping-evict run never probed")
	}
	if spills := both > 0 && idOnly+addrOnly > 0; spills != (ids > 0) {
		t.Fatalf("books bounded at %d IDs, %d addresses: entry-steps with both spilled %d, only the ID %d, only the address %d",
			ids, addrs, both, idOnly, addrOnly)
	}
}

// checkLayout asserts the table's layout invariant: ends is strictly
// increasing and its last value is len(entries), there is one end per
// occupied bucket, and every run holds at most k entries, all of them of its
// own bucket.
func checkLayout(t testing.TB, table *Table) {
	t.Helper()
	occupied := 0
	for _, w := range table.occupied {
		occupied += bits.OnesCount64(w)
	}
	if len(table.ends) != occupied {
		t.Fatalf("%d ends for %d occupied buckets", len(table.ends), occupied)
	}
	lo, r := 0, 0
	for idx := 0; idx < IDBits; idx++ {
		if !table.occupied.has(idx) {
			continue
		}
		hi := int(table.ends[r])
		if hi <= lo {
			t.Fatalf("bucket %d: end %d does not pass the previous end %d", idx, hi, lo)
		}
		if hi-lo > table.k {
			t.Fatalf("bucket %d: run of %d entries, k = %d", idx, hi-lo, table.k)
		}
		for i := lo; i < hi; i++ {
			id := table.idOf(&table.entries[i])
			if got, ok := table.self.BucketIndex(id); !ok || got != idx {
				t.Fatalf("entry %s in the run of bucket %d, belongs in %d", id.Short(), idx, got)
			}
		}
		lo, r = hi, r+1
	}
	if lo != len(table.entries) {
		t.Fatalf("last end %d, %d entries", lo, len(table.entries))
	}
}

// checkClosest asserts that every form of the selection returns exactly the
// model's full sort cut to count: AppendClosest the contacts,
// appendClosestRanked the same contacts as entries with rankID's distance
// lanes and a handle to the contact's address, and appendClosestWire the same
// contacts as records, in response order.
func checkClosest(t testing.TB, table *Table, model *modelTable, target ID, count int) {
	t.Helper()
	var want []Contact
	if count > 0 {
		want = model.closest(target, count)
	}
	got := table.AppendClosest(nil, target, count)
	ls := &lookupState{target: target}
	table.appendClosestRanked(ls, count)
	rs := ls.shortlist
	if len(got) != len(want) || len(rs) != len(want) {
		t.Fatalf("closest %d to %s: %d contacts, %d ranked, model %d", count, target.Short(), len(got), len(rs), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closest %d to %s: [%d] = %v, model %v", count, target.Short(), i, got[i], want[i])
		}
		r := rs[i]
		r.addr = 0
		if r != rankID(target, want[i].ID) || rankedAddr(table, ls, rs[i].addr) != want[i].Addr {
			t.Fatalf("closest %d to %s: ranked[%d] = %+v, want %+v at %q", count, target.Short(), i, rs[i], rankID(target, want[i].ID), want[i].Addr)
		}
	}
	prefix := []byte("prefix")
	wire, n := table.appendClosestWire(bytes.Clone(prefix), target, count)
	if !bytes.HasPrefix(wire, prefix) {
		t.Fatalf("closest %d to %s: wire form clobbered its prefix: %x", count, target.Short(), wire)
	}
	var records []Contact
	for region := wire[len(prefix):]; len(region) > 0; {
		id, addr, rest, ok := nextContact(region)
		if !ok {
			t.Fatalf("closest %d to %s: wire form ends inside record %d", count, target.Short(), len(records))
		}
		records = append(records, Contact{ID: ID(id), Addr: transport.Addr(addr)})
		region = rest
	}
	if n != len(records) {
		t.Fatalf("closest %d to %s: wire form counts %d records and holds %d", count, target.Short(), n, len(records))
	}
	checkResponseRecords(t, table.self, target, records, want)
}

// rankedAddr resolves the address handle h that table.appendClosestRanked
// gave an entry of ls: into the table's book, or the spill list of ls.
func rankedAddr(table *Table, ls *lookupState, h uint32) transport.Addr {
	if h&spilled != 0 {
		return ls.spill[h&^spilled]
	}
	return table.book.addrs.items[h]
}

// checkResponseRecords asserts that a response's records are want in the
// order Message.Contacts documents: want's contacts — compared sorted by
// distance — with each bucket's records contiguous and the buckets nearest
// first, i.e. every record of a bucket nearer target than every record of
// the buckets after it.
func checkResponseRecords(t testing.TB, self, target ID, records, want []Contact) {
	t.Helper()
	type group struct {
		bucket        int
		nearest, last ID // nearest and farthest record
	}
	var groups []group
	for _, c := range records {
		idx, _ := self.BucketIndex(c.ID)
		if len(groups) == 0 || groups[len(groups)-1].bucket != idx {
			groups = append(groups, group{bucket: idx, nearest: c.ID, last: c.ID})
			continue
		}
		g := &groups[len(groups)-1]
		if target.CloserTo(c.ID, g.nearest) {
			g.nearest = c.ID
		}
		if target.CloserTo(g.last, c.ID) {
			g.last = c.ID
		}
	}
	for i := 1; i < len(groups); i++ {
		if !target.CloserTo(groups[i-1].last, groups[i].nearest) {
			t.Fatalf("to %s: records of bucket %d follow bucket %d's without lying wholly farther (split, or out of walk order)",
				target.Short(), groups[i].bucket, groups[i-1].bucket)
		}
	}
	sorted := slices.Clone(records)
	slices.SortFunc(sorted, func(a, b Contact) int { return target.DistanceCompare(a.ID, b.ID) })
	if !slices.Equal(sorted, want) {
		t.Fatalf("to %s: records sorted by distance\n  %v\nwant the %d nearest\n  %v", target.Short(), sorted, len(want), want)
	}
}

// idSharing returns an ID that shares exactly its first prefix bits with
// self — it lands in bucket prefix — with the bits below drawn from rng.
func idSharing(self ID, prefix int, rng *stats.RNG) ID {
	id := RandomID(rng)
	for bit := 0; bit <= prefix; bit++ {
		mask := byte(0x80) >> (bit % 8)
		id[bit/8] = id[bit/8]&^mask | self[bit/8]&mask
	}
	id[prefix/8] ^= 0x80 >> (prefix % 8)
	return id
}

// laneEdges are the bucket indexes around the 64- and 128-bit boundaries of
// the packed distance lanes and at both ends of the ID.
var laneEdges = []int{0, 1, 2, 61, 62, 63, 64, 65, 66, 126, 127, 128, 129, IDBits - 2, IDBits - 1}

// newStructuredTable builds a table and its model from one seed: uniform IDs
// that fill the shallow buckets, then up to k IDs in every laneEdges bucket,
// so occupied buckets sit on both sides of each lane boundary.
func newStructuredTable(seed uint64, k int) (*Table, *modelTable, *stats.RNG) {
	rng := stats.NewRNG(seed)
	self := RandomID(rng)
	now := func() time.Time { return time.Unix(5000, 0) }
	table := NewTable(self, k, 10*time.Minute, now)
	model := &modelTable{self: self, k: k, staleAfter: 10 * time.Minute, now: now, buckets: map[int][]modelEntry{}}
	observe := func(id ID) {
		c := Contact{ID: id, Addr: transport.Addr(id.Short())}
		table.Observe(c)
		model.observe(c)
	}
	for i := 0; i < 30*k; i++ {
		observe(RandomID(rng))
	}
	for _, idx := range laneEdges {
		for i := 0; i < k; i++ {
			observe(idSharing(self, idx, rng))
		}
	}
	return table, model, rng
}

func TestTableClosestStructured(t *testing.T) {
	// The uniformly random targets of TestTableRandomizedAgainstModel part from
	// self within the first few bits, so they never reach the far-side sweep
	// across the lane boundaries. Here the targets share long prefixes with
	// self, the buckets around every boundary are occupied, and k runs past
	// the inline key scratch.
	for _, k := range []int{20, 40} {
		table, model, rng := newStructuredTable(uint64(k), k)
		targets := []ID{table.self, RandomID(rng), table.Closest(table.self, 1)[0].ID}
		for _, prefix := range []int{1, 62, 63, 64, 65, 127, 128, IDBits - 1} {
			targets = append(targets, idSharing(table.self, prefix, rng), idSharing(table.self, prefix, rng))
		}
		for _, target := range targets {
			for _, count := range []int{1, k, 2 * k, table.Len() + 5} {
				checkClosest(t, table, model, target, count)
			}
		}
	}
}

func TestAppendClosestAllocs(t *testing.T) {
	// The receive paths call AppendClosest per datagram into a recycled
	// buffer: at the default K the selection must run on its stack frame alone.
	const k = 20
	table, _, rng := newStructuredTable(7, k)
	targets := []ID{table.self, RandomID(rng), idSharing(table.self, 64, rng)}
	buf := make([]Contact, 0, k)
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		buf = table.AppendClosest(buf[:0], targets[i%len(targets)], k)
		i++
	}); allocs != 0 {
		t.Fatalf("AppendClosest into a reused buffer makes %v allocations, want 0", allocs)
	}
	if len(buf) != k {
		t.Fatalf("AppendClosest returned %d contacts, want %d", len(buf), k)
	}
}

// BenchmarkTableClosest times the selection kernel on a 2000-ID table at the
// default K: near aims at the deepest occupied bucket (the answer spans
// several small buckets), far at a full bucket 0 (one bucket, cut to K).
func BenchmarkTableClosest(b *testing.B) {
	rng := stats.NewRNG(2000)
	self := RandomID(rng)
	table := NewTable(self, 20, time.Hour, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 2000; i++ {
		table.Observe(Contact{ID: RandomID(rng)})
	}
	for _, arm := range []struct {
		name   string
		target ID
	}{
		{"near", table.Closest(self, 1)[0].ID},
		{"far", idInBucket(self, 0)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]Contact, 0, 20)
			for i := 0; i < b.N; i++ {
				buf = table.AppendClosest(buf[:0], arm.target, 20)
			}
			if len(buf) != 20 {
				b.Fatalf("AppendClosest returned %d contacts", len(buf))
			}
		})
	}
}

// TestRanksSelfFirstMatchesClosest: the near-side test says self ranks first
// for a key exactly when Closest(key, 1) finds no contact nearer than self,
// over seeded random tables — empty, one contact, full buckets, deep buckets
// sharing long prefixes with self — for keys at self, sharing long prefixes
// with it, at and beside contacts, and on each table again after removals.
func TestRanksSelfFirstMatchesClosest(t *testing.T) {
	check := func(table *Table, key ID) {
		t.Helper()
		c := table.Closest(key, 1)
		want := len(c) == 0 || key.CloserTo(table.self, c[0].ID)
		if got := table.ranksSelfFirst(key); got != want {
			t.Fatalf("%d contacts, key %s: ranksSelfFirst = %v, Closest(key, 1) = %v", table.Len(), key.Short(), got, c)
		}
	}
	now := func() time.Time { return time.Unix(5000, 0) }
	for seed := uint64(0); seed < 200; seed++ {
		rng := stats.NewRNG(seed)
		self := RandomID(rng)
		table := NewTable(self, 2+rng.Intn(19), 10*time.Minute, now)
		observe := func(id ID) { table.Observe(Contact{ID: id, Addr: transport.Addr(id.Short())}) }
		switch seed % 4 {
		case 1:
			observe(RandomID(rng))
		case 2:
			for i, n := 0, 1+rng.Intn(300); i < n; i++ {
				observe(RandomID(rng))
			}
		case 3:
			for i, n := 0, rng.Intn(100); i < n; i++ {
				observe(RandomID(rng))
			}
			for i := 0; i < 8; i++ {
				prefix := rng.Intn(IDBits)
				for j := 0; j < table.k; j++ {
					observe(idSharing(self, prefix, rng))
				}
			}
		}
		var ids []ID
		table.Each(func(c Contact) { ids = append(ids, c.ID) })
		keys := []ID{self}
		for len(keys) < 200 {
			switch i := rng.Intn(4); {
			case i == 0:
				keys = append(keys, RandomID(rng))
			case i == 1 || len(ids) == 0:
				keys = append(keys, idSharing(self, rng.Intn(IDBits), rng))
			case i == 2:
				keys = append(keys, ids[rng.Intn(len(ids))])
			default:
				key := ids[rng.Intn(len(ids))]
				bit := IDBits - 1 - rng.Intn(24)
				key[bit/8] ^= 0x80 >> (bit % 8)
				keys = append(keys, key)
			}
		}
		for _, key := range keys {
			check(table, key)
		}
		for _, id := range ids {
			if rng.Intn(2) == 0 {
				table.Remove(id)
			}
		}
		for _, key := range keys {
			check(table, key)
		}
	}
}

func TestTableRemove(t *testing.T) {
	table, _ := newTestTable(20)
	c := Contact{ID: IDFromKey([]byte("x"))}
	table.Observe(c)
	table.Remove(c.ID)
	if table.Contains(c.ID) || table.Len() != 0 {
		t.Error("Remove failed")
	}
	table.Remove(c.ID) // removing absent contact is a no-op
}

func TestTableBucketInvariant(t *testing.T) {
	// Property: no bucket ever exceeds k entries, every entry lands in the
	// run of the bucket matching its XOR prefix (checkLayout), and the one
	// array holds no more room than the doubling rule gives it.
	rng := stats.NewRNG(55)
	self := RandomID(rng)
	now := time.Unix(0, 0)
	const k = bucketK
	table := NewTable(self, k, time.Hour, func() time.Time { return now })
	for i := 0; i < 5000; i++ {
		table.Observe(Contact{ID: RandomID(rng)})
	}
	checkLayout(t, table)
	if want := doubledCap(table.Len()); cap(table.entries) != want {
		t.Fatalf("%d entries in room for %d, want %d", table.Len(), cap(table.entries), want)
	}
	// 5000 uniform IDs reach ~log2(5000) distances: their ends stay inline.
	if len(table.ends) == 0 || cap(table.ends) != inlineBuckets {
		t.Fatalf("%d occupied buckets, ends in room for %d, want the inline %d", len(table.ends), cap(table.ends), inlineBuckets)
	}
}

// doubledCap is the capacity the doubling rule gives an array that has held
// n entries and never shrunk: firstEntries, doubled until n fit.
func doubledCap(n int) int {
	c := firstEntries
	for c < n {
		c *= 2
	}
	return c
}

func TestTableArrayDoubles(t *testing.T) {
	// A table fed 2,000 uniform IDs holds ~150 entries in one array grown by
	// doubling: its fill allocates what a one-ID table does (the table and
	// the first array) plus one array per doubling. A table that goes back to
	// an array per bucket pays one or more per bucket. The books are a loop's,
	// shared by every fill, as a node's are: what they hold is booked once
	// per loop, not once per table, and the first (warm-up) fill books it.
	rng := stats.NewRNG(2000)
	self := RandomID(rng)
	ids := make([]ID, 2000)
	for i := range ids {
		ids[i] = RandomID(rng)
	}
	var table *Table
	loop := privateBooks(defaultBookAddrs)
	fill := func(ids []ID) {
		table = NewTable(self, bucketK, time.Hour, time.Now)
		table.book = loop
		for _, id := range ids {
			table.Observe(Contact{ID: id})
		}
	}
	first := testing.AllocsPerRun(3, func() { fill(ids[:1]) })
	all := testing.AllocsPerRun(3, func() { fill(ids) })
	doublings := bits.Len(uint(doubledCap(table.Len())/firstEntries)) - 1
	if table.Len() <= 2*firstEntries || all > first+float64(doublings) {
		t.Fatalf("%d entries cost %v allocations, a one-ID table %v: want at most %d more", table.Len(), all, first, doublings)
	}
}

func TestTableMaxK(t *testing.T) {
	// A uint16 end indexes the deepest table a maxK table can hold: every
	// bucket filled to k, or to the IDs its distance has room for.
	for _, k := range []int{0, maxK + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTable accepted k = %d", k)
				}
			}()
			NewTable(ID{}, k, time.Hour, time.Now)
		}()
	}
	table := NewTable(ID{}, maxK, time.Hour, time.Now)
	want := 0
	for idx := 0; idx < IDBits; idx++ {
		// Bucket idx holds the IDs with bit idx set and any bits below it.
		n := maxK
		if below := IDBits - 1 - idx; below < 16 {
			n = min(n, 1<<below)
		}
		for j := 0; j < n; j++ {
			id := idInBucket(ID{}, idx)
			id[IDBytes-2] |= byte(j >> 8)
			id[IDBytes-1] |= byte(j)
			table.Observe(Contact{ID: id})
		}
		want += n
	}
	checkLayout(t, table)
	if table.Len() != want || len(table.ends) != IDBits {
		t.Fatalf("Len %d in %d runs, want %d in %d", table.Len(), len(table.ends), want, IDBits)
	}
}

// idInBucket returns an ID whose bucket index relative to self is idx.
func idInBucket(self ID, idx int) ID {
	id := self
	id[idx/8] ^= 0x80 >> (idx % 8)
	return id
}

func TestTableAbsentBucket(t *testing.T) {
	// Every operation that indexes a bucket treats a never-populated one as
	// empty, at the near end, the far end and in between.
	table, _ := newTestTable(4)
	table.SetPolicy(TablePingEvict)
	for _, idx := range []int{0, 1, 63, 64, 127, 128, IDBits - 1} {
		id := idInBucket(table.self, idx)
		if got, ok := table.self.BucketIndex(id); !ok || got != idx {
			t.Fatalf("idInBucket(%d) landed in bucket %d", idx, got)
		}
		if table.Contains(id) {
			t.Errorf("bucket %d: Contains on an absent bucket", idx)
		}
		table.Remove(id)
		table.probeDone(id, false)
		table.probeDone(id, true)
		if table.occupied.has(idx) || len(table.ends) != 0 {
			t.Errorf("bucket %d: a run made without an insert", idx)
		}
	}
	if table.Len() != 0 {
		t.Errorf("Len = %d on an empty table", table.Len())
	}
	table.Each(func(c Contact) { t.Errorf("Each visited %v on an empty table", c) })
	if got := table.Closest(IDFromKey([]byte("t")), 3); len(got) != 0 {
		t.Errorf("Closest returned %d contacts from an empty table", len(got))
	}
	// The first insert makes exactly its own bucket's run.
	id := idInBucket(table.self, 77)
	table.Observe(Contact{ID: id})
	checkLayout(t, table)
	if !table.Contains(id) || table.Len() != 1 || !table.occupied.has(77) || len(table.ends) != 1 {
		t.Errorf("first insert into an absent bucket: %d runs, Len %d", len(table.ends), table.Len())
	}
}

func TestTableEveryBucket(t *testing.T) {
	// Adversarially placed IDs can populate every distance: the ends grow
	// past their inline array, the runs stay in bucket order whatever order
	// they were made in, and the table still selects exactly.
	table, _ := newTestTable(4)
	rng := stats.NewRNG(160)
	order := make([]int, IDBits)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(rng.Uint64n(uint64(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
	for n, idx := range order {
		table.Observe(Contact{ID: idInBucket(table.self, idx)})
		if table.Len() != n+1 {
			t.Fatalf("after %d inserts Len = %d", n+1, table.Len())
		}
	}
	checkLayout(t, table)
	if len(table.ends) != IDBits {
		t.Fatalf("%d runs, want %d", len(table.ends), IDBits)
	}
	next := 0
	table.Each(func(c Contact) {
		if idx, _ := table.self.BucketIndex(c.ID); idx != next {
			t.Fatalf("Each visited bucket %d, want %d", idx, next)
		}
		next++
	})
	// XOR distance to self falls as the shared prefix grows: the closest
	// contacts are the deepest buckets, nearest first.
	got := table.Closest(table.self, 5)
	for i, c := range got {
		if want := idInBucket(table.self, IDBits-1-i); c.ID != want {
			t.Fatalf("Closest[%d] = %s, want bucket %d's contact", i, c.ID.Short(), IDBits-1-i)
		}
	}
	for _, idx := range order[:40] {
		table.Remove(idInBucket(table.self, idx))
	}
	checkLayout(t, table)
	if table.Len() != IDBits-40 || len(table.ends) != IDBits-40 {
		t.Fatalf("after 40 removals: Len %d, %d runs", table.Len(), len(table.ends))
	}
}

func TestEmptyTableSize(t *testing.T) {
	// A booted node keeps one of these. Its buckets are runs of one entries
	// array, so it holds two slice headers and 20 inline bucket ends where it
	// used to hold a slice header per bucket: 200 bytes, not 640.
	if size := unsafe.Sizeof(Table{}); size > 200 {
		t.Fatalf("empty Table is %d bytes, want <= 200", size)
	}
	// 16 bytes a table entry: two handles into the loop's books and a
	// timestamp, four entries a cache line.
	if size := unsafe.Sizeof(bucketEntry{}); size != 16 {
		t.Fatalf("bucketEntry is %d bytes, want 16", size)
	}
	// 32 bytes a shortlist entry: two a cache line.
	if size := unsafe.Sizeof(ranked{}); size != 32 {
		t.Fatalf("ranked is %d bytes, want 32", size)
	}
	// A standalone table makes its books at its first insert.
	if allocs := testing.AllocsPerRun(10, func() {
		NewTable(ID{1}, 20, time.Minute, time.Now)
	}); allocs > 1 {
		t.Fatalf("NewTable makes %v allocations, want the Table alone", allocs)
	}
}

// TestRoutingStateHasNoPointers: routing-table and lookup entries — millions
// of them in a booted large network — hold an address handle, not a string,
// so their arrays are memory the garbage collector never scans and a stale
// copy past a slice's end pins nothing.
func TestRoutingStateHasNoPointers(t *testing.T) {
	for _, v := range []any{bucketEntry{}, ranked{}} {
		typ := reflect.TypeOf(v)
		if path, ok := pointerField(typ, typ.Name()); ok {
			t.Errorf("%s holds a pointer-carrying field: %s", typ.Name(), path)
		}
	}
}

// pointerField reports the first field of typ, searched depth-first through
// structs and arrays, whose kind holds a pointer.
func pointerField(typ reflect.Type, path string) (string, bool) {
	switch typ.Kind() {
	case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.UnsafePointer,
		reflect.Interface, reflect.Func, reflect.Chan:
		return path + " (" + typ.Kind().String() + ")", true
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p, ok := pointerField(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
	}
	return "", false
}
