package dht

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// sinkEndpoint is an endpoint nothing is attached to: sends vanish.
type sinkEndpoint struct{}

func (sinkEndpoint) Addr() transport.Addr              { return "asker" }
func (sinkEndpoint) Send(transport.Addr, []byte) error { return nil }
func (sinkEndpoint) SetHandler(h transport.Handler)    {}
func (sinkEndpoint) Close() error                      { return nil }

// responseRig is one lookup held open on an otherwise idle node, fed
// FIND_NODE responses as datagrams the way Receive feeds them: decoded into
// the scratch Message, then folded in by onResponse. Alpha phantom queries
// stay in flight, so the lookup neither finishes nor issues queries of its
// own and the only work per response is the receive path under test.
type responseRig struct {
	node *Node
	ls   *lookupState
	from Contact
}

func newResponseRig(tb testing.TB, rng *stats.RNG) *responseRig {
	tb.Helper()
	node, err := NewNode(Config{ID: RandomID(rng), Endpoint: sinkEndpoint{}, Clock: sim.NewSimulator()})
	if err != nil {
		tb.Fatal(err)
	}
	ls := node.cfg.Scratch.lookups.Get()
	ls.node, ls.target = node, RandomID(rng)
	self := rankID(ls.target, node.ID())
	ls.seen.add(self.d0, self.d1, self.d2)
	ls.inflight = alpha
	return &responseRig{node: node, ls: ls, from: Contact{ID: RandomID(rng), Addr: "responder"}}
}

// response encodes a FIND_NODE response listing contacts.
func (r *responseRig) response(tb testing.TB, contacts []Contact) []byte {
	tb.Helper()
	wire, err := Message{Kind: KindFindNodeResp, RPCID: 1, From: r.from, Contacts: contacts}.AppendEncode(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return wire
}

// feed handles one response datagram.
func (r *responseRig) feed(wire []byte) {
	rx := &r.node.cfg.Scratch.rx
	if _, err := decodeMessageInto(rx, wire); err != nil {
		panic(err)
	}
	r.ls.inflight++
	r.ls.onResponse(r.from.ID, rx, nil)
}

func randomContacts(rng *stats.RNG, n int, tag string) []Contact {
	out := make([]Contact, n)
	for i := range out {
		out[i] = Contact{ID: RandomID(rng), Addr: transport.Addr(fmt.Sprintf("%s-%d", tag, i))}
	}
	return out
}

// TestLookupResponseOffWire pins what reading a response's contacts off the
// wire buys and what it must not change.
func TestLookupResponseOffWire(t *testing.T) {
	t.Run("seen contacts cost nothing", func(t *testing.T) {
		rig := newResponseRig(t, stats.NewRNG(1))
		wire := rig.response(t, randomContacts(stats.NewRNG(2), 20, "peer"))
		rig.feed(wire)
		if got := len(rig.ls.shortlist); got != 20 {
			t.Fatalf("first response added %d contacts, want 20", got)
		}
		if raceEnabled {
			return
		}
		if allocs := testing.AllocsPerRun(100, func() { rig.feed(wire) }); allocs != 0 {
			t.Errorf("a response of 20 seen contacts allocates %v times, want 0", allocs)
		}
		if got := len(rig.ls.shortlist); got != 20 {
			t.Errorf("repeated responses grew the shortlist to %d", got)
		}
	})

	t.Run("duplicates and self are added once", func(t *testing.T) {
		rig := newResponseRig(t, stats.NewRNG(3))
		c := randomContacts(stats.NewRNG(4), 2, "peer")
		rig.feed(rig.response(t, []Contact{c[0], rig.node.Contact(), c[0], c[1], c[0]}))
		got := make([]Contact, 0, 2)
		for _, r := range rig.ls.shortlist {
			got = append(got, r.contact(rig.ls))
		}
		slices.SortFunc(got, func(a, b Contact) int { return slices.Compare(a.ID[:], b.ID[:]) })
		slices.SortFunc(c, func(a, b Contact) int { return slices.Compare(a.ID[:], b.ID[:]) })
		if !slices.Equal(got, c) {
			t.Errorf("shortlist = %v, want each of %v once and no self", got, c)
		}
	})

	t.Run("forged addresses of seen contacts are not interned", func(t *testing.T) {
		rig := newResponseRig(t, stats.NewRNG(5))
		contacts := randomContacts(stats.NewRNG(6), maxContacts, "peer")
		rig.feed(rig.response(t, contacts))
		book := &rig.node.cfg.Scratch.addrs
		if len(book.items) != maxContacts {
			t.Fatalf("address book holds %d addresses after %d novel contacts", len(book.items), maxContacts)
		}
		for i := range contacts {
			contacts[i].Addr = transport.Addr(fmt.Sprintf("forged-%d", i))
		}
		rig.feed(rig.response(t, contacts))
		if len(book.items) != maxContacts {
			t.Errorf("address book grew to %d on forged addresses of contacts the lookup already had", len(book.items))
		}
		for _, r := range rig.ls.shortlist {
			if c := r.contact(rig.ls); !strings.HasPrefix(string(c.Addr), "peer-") {
				t.Errorf("contact %s re-pointed to %q", c.ID, c.Addr)
			}
		}
	})

	t.Run("matches materialise-then-rank", func(t *testing.T) {
		rng := stats.NewRNG(7)
		rig := newResponseRig(t, rng)
		// Responses draw from a small population, so most records repeat
		// across (and some within) responses; self is in the draw.
		population := append(randomContacts(rng, 150, "peer"), rig.node.Contact())
		var oracle []Contact
		known := map[ID]bool{rig.node.ID(): true}
		for round := 0; round < 60; round++ {
			contacts := make([]Contact, rng.Intn(maxContacts+1))
			for i := range contacts {
				contacts[i] = population[rng.Intn(len(population))]
			}
			wire := rig.response(t, contacts)
			rig.feed(wire)
			msg, err := DecodeMessage(wire)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range msg.Contacts {
				if !known[c.ID] {
					known[c.ID] = true
					oracle = append(oracle, c)
				}
			}
			sortByDistance(rig.ls.target, oracle)
			checkShortlist(t, rig.ls, oracle)
		}
		if len(oracle) <= bucketK {
			t.Fatalf("the draw listed %d contacts: no reserve was exercised", len(oracle))
		}
	})
}

// sortByDistance orders contacts nearest target first.
func sortByDistance(target ID, cs []Contact) {
	slices.SortFunc(cs, func(a, b Contact) int {
		switch {
		case target.CloserTo(a.ID, b.ID):
			return -1
		case target.CloserTo(b.ID, a.ID):
			return 1
		}
		return 0
	})
}

// checkShortlist holds a settled shortlist to the lookup contract, given
// every contact it should list nearest first: the window is the oracle's
// first K in order, the reserve is the rest as a set, and the result is the
// oracle's first K. Entries are compared as the contacts they stand for, so
// the lanes and the address handle are both checked; the query marks are
// not.
func checkShortlist(t *testing.T, ls *lookupState, oracle []Contact) {
	t.Helper()
	if len(ls.shortlist) != len(oracle) || ls.settled != len(oracle) {
		t.Fatalf("shortlist holds %d entries (%d settled), want %d", len(ls.shortlist), ls.settled, len(oracle))
	}
	got := make([]Contact, len(ls.shortlist))
	for i := range ls.shortlist {
		got[i] = ls.shortlist[i].contact(ls)
	}
	k := min(len(oracle), bucketK)
	if !slices.Equal(got[:k], oracle[:k]) {
		t.Fatalf("window diverged from the oracle\n got %v\nwant %v", got[:k], oracle[:k])
	}
	reserve := got[k:]
	sortByDistance(ls.target, reserve)
	if !slices.Equal(reserve, oracle[k:]) {
		t.Fatalf("reserve diverged from the oracle\n got %v\nwant %v", reserve, oracle[k:])
	}
	if got := ls.closestK(); !slices.Equal(got, oracle[:k]) {
		t.Fatalf("result = %v, want %v", got, oracle[:k])
	}
}

// TestLookupFailoverPromotesReserve: with more than K contacts known, a
// window member whose query fails leaves the shortlist, the reserve's
// nearest takes the window's last place, and the result is the oracle's
// minus that contact. Under a retry policy the
// first failure only hands the contact back to step's candidates — with a
// flag, allocation-free — and the second removes it.
func TestLookupFailoverPromotesReserve(t *testing.T) {
	for _, retry := range []bool{false, true} {
		t.Run(fmt.Sprintf("retry=%v", retry), func(t *testing.T) {
			rng := stats.NewRNG(11)
			rig := newResponseRig(t, rng)
			if retry {
				rig.node.cfg.Retry = 2
			}
			oracle := randomContacts(rng, 3*bucketK, "peer")
			rig.feed(rig.response(t, oracle))
			ls := rig.ls
			sortByDistance(ls.target, oracle)
			victim := oracle[bucketK/2]
			entry := func() *ranked {
				for i := range ls.shortlist[:bucketK] {
					if ls.shortlist[i].contact(ls) == victim {
						return &ls.shortlist[i]
					}
				}
				return nil
			}
			fail := func() {
				entry().queried = true // as step marks it
				ls.inflight++
				ls.onResponse(victim.ID, nil, ErrTimeout)
			}
			if retry {
				fail()
				if r := entry(); r == nil || r.queried || !r.requeried {
					t.Fatalf("after one failure under retry: entry %+v, want listed, unqueried, requeried", r)
				}
				checkShortlist(t, ls, oracle)
				if !raceEnabled {
					allocs := testing.AllocsPerRun(100, func() {
						entry().requeried = false
						fail()
					})
					if allocs != 0 {
						t.Errorf("a re-query grant allocates %v times, want 0", allocs)
					}
				}
			}
			fail()
			if entry() != nil {
				t.Fatal("the failed contact is still in the window")
			}
			oracle = slices.Delete(oracle, bucketK/2, bucketK/2+1)
			checkShortlist(t, ls, oracle)
		})
	}
}

// BenchmarkLookupResponse times the receive path of one FIND_NODE response —
// decode plus the lookup's rank-and-dedupe — at its two extremes: every
// contact already seen (the common case late in a lookup, and the one CI
// gates at 0 allocs/op) and every contact new. novel lists K contacts, which
// fill the window; reserve lists the wire limit, so all but K of them go
// through the reserve's compare-and-evict.
func BenchmarkLookupResponse(b *testing.B) {
	rig := newResponseRig(b, stats.NewRNG(1))
	wire := rig.response(b, randomContacts(stats.NewRNG(2), 20, "node"))
	rig.feed(wire)
	b.Run("seen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rig.feed(wire)
		}
	})
	for _, c := range []struct {
		name string
		wire []byte
	}{{"novel", wire}, {"reserve", rig.response(b, randomContacts(stats.NewRNG(3), maxContacts, "node"))}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			ls := rig.ls
			for i := 0; i < b.N; i++ {
				ls.seen.reset()
				ls.shortlist, ls.settled = ls.shortlist[:0], 0
				rig.feed(c.wire)
			}
		})
	}
}
