package dht

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// queryLog is an endpoint that keeps the FIND_NODE requests its node sends,
// in send order. Nothing answers them but the test.
type queryLog struct {
	sinkEndpoint
	sent []sentQuery
}

type sentQuery struct {
	to  transport.Addr
	rpc uint64
}

func (e *queryLog) Send(to transport.Addr, payload []byte) error {
	var m Message
	if _, err := decodeMessageInto(&m, payload); err == nil && m.Kind == KindFindNode {
		e.sent = append(e.sent, sentQuery{to: to, rpc: m.RPCID})
	}
	return nil
}

// joinRig is one node's self-lookup driven by hand: the test answers each
// FIND_NODE it sends, or lets it time out, at instants of its choosing.
type joinRig struct {
	s     *sim.Simulator
	t0    time.Time
	node  *Node
	ep    *queryLog
	rng   *stats.RNG
	seeds []Contact
	peers map[transport.Addr]Contact
	calls int // finish callbacks
	fresh int // contacts made up so far
}

func newJoinRig(t *testing.T, s *sim.Simulator, scratch *Scratch, rng *stats.RNG, seeds int) *joinRig {
	t.Helper()
	ep := &queryLog{}
	node, err := NewNode(Config{ID: RandomID(rng), Endpoint: ep, Clock: s, Scratch: scratch})
	if err != nil {
		t.Fatal(err)
	}
	r := &joinRig{s: s, t0: s.Now(), node: node, ep: ep, rng: rng, peers: make(map[transport.Addr]Contact)}
	r.seeds = r.contacts(seeds)
	return r
}

// contacts makes up n contacts nobody has listed yet.
func (r *joinRig) contacts(n int) []Contact {
	out := make([]Contact, n)
	for i := range out {
		r.fresh++
		out[i] = Contact{ID: RandomID(r.rng), Addr: transport.Addr(fmt.Sprintf("peer-%d", r.fresh))}
		r.peers[out[i].Addr] = out[i]
	}
	return out
}

// at runs the node's events up to d past the rig's start.
func (r *joinRig) at(d time.Duration) { r.s.RunUntil(r.t0.Add(d)) }

// answer replies to query i with news contacts the walk has never seen and
// every seed, which it has.
func (r *joinRig) answer(t *testing.T, i, news int) {
	t.Helper()
	q := r.ep.sent[i]
	listed := append(r.contacts(news), r.seeds...)
	wire, err := Message{Kind: KindFindNodeResp, RPCID: q.rpc, From: r.peers[q.to], Contacts: listed}.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	r.node.Receive(q.to, wire)
}

// TestRejoinStopsOnBarrenReplies scripts one rejoin. Three answered replies
// in a row that add no contact stop it; a reply with one new contact resets
// the count, and a timed-out query counts neither way. After the stop no
// FIND_NODE leaves, the callback has run once, and the replies still out
// drain into the table; then the state and its queries' RPC records are back
// on the loop's lists, and a second rejoin on the warm loop takes no new
// record.
func TestRejoinStopsOnBarrenReplies(t *testing.T) {
	s, scratch, rng := sim.NewSimulator(), NewScratch(0), stats.NewRNG(3)
	var warm RecordMisses
	for run := range 2 {
		r := newJoinRig(t, s, scratch, rng, 8)
		// Each step: at d, answer query i with news new contacts (news < 0:
		// let every query sent by then time out); then want sent FIND_NODEs.
		script := []struct {
			d           time.Duration
			i, news     int
			sent, calls int
		}{
			{100 * time.Millisecond, 0, 2, 4, 0},  // new contacts: count 0
			{200 * time.Millisecond, 1, 0, 5, 0},  // barren: 1
			{300 * time.Millisecond, 3, 0, 6, 0},  // barren: 2
			{350 * time.Millisecond, 4, 1, 7, 0},  // one new contact: 0
			{501 * time.Millisecond, 2, -1, 8, 0}, // query 2 (sent at 0) times out: still 0
			{550 * time.Millisecond, 5, 0, 9, 0},  // barren: 1
			{560 * time.Millisecond, 6, 0, 10, 0}, // barren: 2
			{570 * time.Millisecond, 7, 0, 10, 1}, // barren: 3, the stop
			{580 * time.Millisecond, 8, 3, 10, 1}, // drained: news teach nothing
		}
		r.node.join(r.seeds, func(int) { r.calls++ }, true) // Rejoin, with a callback to count
		if got := len(r.ep.sent); got != alpha {
			t.Fatalf("run %d: the rejoin sent %d queries, want alpha = %d", run, got, alpha)
		}
		for _, st := range script {
			r.at(st.d)
			if st.news >= 0 {
				r.answer(t, st.i, st.news)
			}
			if len(r.ep.sent) != st.sent || r.calls != st.calls {
				t.Fatalf("run %d at %v: %d FIND_NODEs sent, %d callbacks; want %d and %d", run, st.d, len(r.ep.sent), r.calls, st.sent, st.calls)
			}
		}
		// Query 8's reply, which came in the drain, reached the table.
		if drained := r.peers[r.ep.sent[8].to]; !slices.Contains(r.node.Table().Closest(drained.ID, 1), drained) {
			t.Errorf("run %d: the drained reply of %s never reached the table", run, drained.Addr)
		}
		if got := scratch.lookups.Len(); got != 0 {
			t.Errorf("run %d: a state went back with query 9 still out (%d free)", run, got)
		}
		s.Run() // query 9 times out: the last of the drain
		if len(r.ep.sent) != 10 || r.calls != 1 {
			t.Errorf("run %d: after the drain, %d FIND_NODEs and %d callbacks, want 10 and 1", run, len(r.ep.sent), r.calls)
		}
		if scratch.lookups.Len() != 1 || scratch.rpcs.Len() != alpha {
			t.Errorf("run %d: %d states and %d RPC records free after the drain, want 1 and %d", run, scratch.lookups.Len(), scratch.rpcs.Len(), alpha)
		}
		ls := scratch.lookups.Get()
		if ls.node != nil || ls.rejoin || ls.barren != 0 || ls.finished || ls.inflight != 0 || len(ls.shortlist) != 0 || len(ls.sends) != 0 {
			t.Errorf("run %d: released state not cleared: %+v", run, ls)
		}
		scratch.lookups.Put(ls)
		if run == 0 {
			warm = scratch.Misses()
		} else if got := scratch.Misses(); got != warm {
			t.Errorf("a rejoin on a warm loop took new records: misses %+v, then %+v", warm, got)
		}
	}
}

// TestBootstrapRunsFullWindow pins Bootstrap to the full walk: with every
// reply barren, a bootstrap's self-lookup asks each of its eight seeds, the
// whole window, where Rejoin stops after alpha barren replies — the three
// first queries and the two sent on the first two replies.
func TestBootstrapRunsFullWindow(t *testing.T) {
	for _, c := range []struct {
		rejoin bool
		want   int
	}{{false, 8}, {true, alpha + alpha - 1}} {
		r := newJoinRig(t, sim.NewSimulator(), nil, stats.NewRNG(5), 8)
		if c.rejoin {
			r.node.Rejoin(r.seeds)
		} else {
			r.node.Bootstrap(r.seeds, func(int) { r.calls++ })
		}
		for i := 0; i < len(r.ep.sent); i++ {
			r.at(time.Duration(i+1) * 10 * time.Millisecond)
			r.answer(t, i, 0)
		}
		r.s.Run()
		if got := len(r.ep.sent); got != c.want {
			t.Errorf("rejoin=%v: %d FIND_NODEs, want %d", c.rejoin, got, c.want)
		}
		if !c.rejoin && r.calls != 1 {
			t.Errorf("Bootstrap called back %d times, want 1", r.calls)
		}
	}
}
