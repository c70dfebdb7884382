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
// FIND_NODE responses as datagrams the way handle feeds them: decoded into
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
	self := rankContact(ls.target, node.Contact())
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
	r.ls.onResponse(r.from, rx, nil)
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
			got = append(got, r.c)
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
		addrs := rig.node.cfg.Scratch.addrs
		if len(addrs) != maxContacts {
			t.Fatalf("interner holds %d addresses after %d novel contacts", len(addrs), maxContacts)
		}
		for i := range contacts {
			contacts[i].Addr = transport.Addr(fmt.Sprintf("forged-%d", i))
		}
		rig.feed(rig.response(t, contacts))
		if len(addrs) != maxContacts {
			t.Errorf("interner grew to %d on forged addresses of contacts the lookup already had", len(addrs))
		}
		for _, r := range rig.ls.shortlist {
			if !strings.HasPrefix(string(r.c.Addr), "peer-") {
				t.Errorf("contact %s re-pointed to %q", r.c.ID, r.c.Addr)
			}
		}
	})

	t.Run("matches materialise-then-rank", func(t *testing.T) {
		rng := stats.NewRNG(7)
		rig := newResponseRig(t, rng)
		// Responses draw from a small population, so most records repeat
		// across (and some within) responses; self is in the draw.
		population := append(randomContacts(rng, 150, "peer"), rig.node.Contact())
		var oracle []ranked
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
					oracle = append(oracle, rankContact(rig.ls.target, c))
				}
			}
			slices.SortStableFunc(oracle, func(a, b ranked) int {
				if a.farther(b) {
					return 1
				}
				return -1
			})
			if !slices.Equal(rig.ls.shortlist, oracle) {
				t.Fatalf("round %d: shortlist diverged from the oracle\n got %v\nwant %v", round, rig.ls.shortlist, oracle)
			}
		}
		want := make([]Contact, 0, bucketK)
		for _, r := range oracle[:bucketK] {
			want = append(want, r.c)
		}
		if got := rig.ls.closestK(); !slices.Equal(got, want) {
			t.Errorf("result = %v, want %v", got, want)
		}
	})
}

// BenchmarkLookupResponse times the receive path of one K-contact FIND_NODE
// response — decode plus the lookup's rank-and-dedupe — at its two extremes:
// every contact already seen (the common case late in a lookup, and the one
// CI gates at 0 allocs/op) and every contact new.
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
	b.Run("novel", func(b *testing.B) {
		b.ReportAllocs()
		ls := rig.ls
		for i := 0; i < b.N; i++ {
			ls.seen.reset()
			ls.shortlist, ls.sorted = ls.shortlist[:0], 0
			rig.feed(wire)
		}
	})
}
