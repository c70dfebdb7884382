package dht

import (
	"slices"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// pendingRig is a node with requests out to a peer that never answers: no
// endpoint sits at the peer's address, so the test forges every response and
// hands it to the node's Receive itself.
func pendingRig(t *testing.T, retry int) (*sim.Simulator, *Node, Contact) {
	t.Helper()
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 7})
	rng := stats.NewRNG(7)
	a, err := NewNode(Config{ID: RandomID(rng), Endpoint: net.Endpoint("a"), Clock: s, Retry: retry})
	if err != nil {
		t.Fatal(err)
	}
	peer := Contact{ID: RandomID(rng), Addr: "peer"}
	a.table.Observe(peer)
	return s, a, peer
}

// pingAll issues n pings to peer and returns their RPCIDs in issue order;
// each settled ping appends its own RPCID and error to *done.
func pingAll(a *Node, peer Contact, n int, done *[]settled) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		a.Ping(peer, func(err error) { *done = append(*done, settled{ids[i], err}) })
		ids[i] = a.rpcSeq
	}
	return ids
}

// inlineSlots is how many requests a node holds before its pending list
// needs an array of its own.
const inlineSlots = len(Node{}.inline)

type settled struct {
	id  uint64
	err error
}

// pong feeds a forged KindPong for rpcID from `from`, arriving at addr.
func pong(t *testing.T, a *Node, from Contact, addr transport.Addr, rpcID uint64) {
	t.Helper()
	wire, err := Message{Kind: KindPong, RPCID: rpcID, From: from}.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Receive(addr, wire)
}

func pendingIDs(a *Node) []uint64 {
	var ids []uint64
	for _, p := range a.pending {
		ids = append(ids, p.id)
	}
	return ids
}

// TestPendingSettlesOutOfOrder: with more requests in flight than a node
// holds inline, responses arriving in reverse or shuffled order each settle
// the request with their own RPCID, and only that one.
func TestPendingSettlesOutOfOrder(t *testing.T) {
	const n = 2*inlineSlots + 1
	orders := map[string]func([]uint64){
		"reverse": slices.Reverse[[]uint64],
		"shuffled": func(ids []uint64) {
			stats.NewRNG(3).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		},
	}
	for _, name := range []string{"reverse", "shuffled"} {
		t.Run(name, func(t *testing.T) {
			_, a, peer := pendingRig(t, 0)
			var done []settled
			ids := pingAll(a, peer, n, &done)
			if !slices.Equal(pendingIDs(a), ids) {
				t.Fatalf("pending %v, want issue order %v", pendingIDs(a), ids)
			}
			replies := slices.Clone(ids)
			orders[name](replies)
			for i, id := range replies {
				pong(t, a, peer, "peer", id)
				if len(done) != i+1 || done[i] != (settled{id, nil}) {
					t.Fatalf("reply %d (RPCID %d) settled %v", i, id, done)
				}
				if slices.Contains(pendingIDs(a), id) || len(a.pending) != n-i-1 {
					t.Fatalf("after RPCID %d, pending = %v", id, pendingIDs(a))
				}
			}
		})
	}
}

// TestPendingUnmatchedReplies: a response whose RPCID is unknown, already
// settled or a duplicate settles nothing and counts as a duplicate, and its
// sender is observed unverified — the table does not re-point the peer to the
// address it came from — where a matched response is a verified observation.
func TestPendingUnmatchedReplies(t *testing.T) {
	_, a, peer := pendingRig(t, 0)
	var done []settled
	ids := pingAll(a, peer, 3, &done)
	addrOf := func() string { return string(a.table.Closest(peer.ID, 1)[0].Addr) }

	pong(t, a, peer, "moved", ids[2]+100) // unknown RPCID
	pong(t, a, peer, "moved", 0)          // never issued
	if len(done) != 0 || len(a.pending) != 3 {
		t.Fatalf("unknown RPCIDs settled %v, pending %v", done, pendingIDs(a))
	}
	if got := addrOf(); got != "peer" {
		t.Fatalf("an unmatched reply re-pointed the peer to %q", got)
	}

	pong(t, a, peer, "peer", ids[1])
	pong(t, a, peer, "moved", ids[1]) // already settled
	pong(t, a, peer, "moved", ids[1]) // and duplicated
	if want := []settled{{ids[1], nil}}; !slices.Equal(done, want) {
		t.Fatalf("settled %v, want %v", done, want)
	}
	if !slices.Equal(pendingIDs(a), []uint64{ids[0], ids[2]}) {
		t.Fatalf("pending %v after settling %d", pendingIDs(a), ids[1])
	}
	if got := addrOf(); got != "peer" {
		t.Fatalf("a settled RPCID's repeat re-pointed the peer to %q", got)
	}
	if d := a.Resilience().Duplicates; d != 4 {
		t.Fatalf("counted %d duplicates, want 4", d)
	}

	// A forged answer — the right RPCID from another ID — keeps the request
	// waiting; the real peer's answer from a new address settles it, verified.
	forger := Contact{ID: RandomID(stats.NewRNG(99)), Addr: "forger"}
	pong(t, a, forger, "forger", ids[0])
	if len(done) != 1 {
		t.Fatalf("a forged reply settled %v", done[1:])
	}
	pong(t, a, peer, "moved", ids[0])
	if len(done) != 2 || done[1] != (settled{ids[0], nil}) {
		t.Fatalf("settled %v", done)
	}
	if got := addrOf(); got != "moved" {
		t.Fatalf("a matched reply left the peer at %q", got)
	}
}

// TestPendingRetryKeepsPlace: a request re-sent under the retry policy keeps
// its RPCID and its place in issue order, so a request issued after it still
// sorts behind it and both settle by their own replies.
func TestPendingRetryKeepsPlace(t *testing.T) {
	s, a, peer := pendingRig(t, 3)
	var done []settled
	first := pingAll(a, peer, 1, &done)[0]
	s.RunFor(rpcTimeout + retryBackoff + time.Millisecond) // timed out, backed off, re-sent
	if r := a.Resilience().Retries; r != 1 {
		t.Fatalf("%d re-sends, want 1", r)
	}
	second := pingAll(a, peer, 1, &done)[0]
	if !slices.Equal(pendingIDs(a), []uint64{first, second}) {
		t.Fatalf("pending %v, want [%d %d]", pendingIDs(a), first, second)
	}
	pong(t, a, peer, "peer", second)
	pong(t, a, peer, "peer", first)
	if want := []settled{{second, nil}, {first, nil}}; !slices.Equal(done, want) {
		t.Fatalf("settled %v, want %v", done, want)
	}
	if r := a.Resilience().Recovered; r != 1 {
		t.Fatalf("%d recovered RPCs, want 1 (the re-sent one)", r)
	}
}

// TestCloseFailsPendingInIssueOrder: Close fails what is still in flight —
// more requests than a node holds inline, with gaps where some settled —
// with ErrClosed, one event each, in the order they were issued.
func TestCloseFailsPendingInIssueOrder(t *testing.T) {
	s, a, peer := pendingRig(t, 0)
	var done []settled
	ids := pingAll(a, peer, 3*inlineSlots, &done)
	var open []uint64
	for i, id := range ids {
		if i%3 == 1 {
			pong(t, a, peer, "peer", id)
		} else {
			open = append(open, id)
		}
	}
	done = done[:0]
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("Close ran callbacks inline: %v", done)
	}
	s.RunFor(time.Second)
	var got []uint64
	for _, d := range done {
		if d.err != ErrClosed {
			t.Fatalf("RPCID %d failed with %v, want ErrClosed", d.id, d.err)
		}
		got = append(got, d.id)
	}
	if !slices.Equal(got, open) {
		t.Fatalf("Close failed %v, want issue order %v", got, open)
	}
}
