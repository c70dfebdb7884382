package dht

import (
	"testing"
	"time"
)

// parkCluster is an owner cluster with one send from node 3 parked: the walk
// for its key has finished and the send waits for its instant, a second on.
// It returns the cluster, the sender and the instant.
func parkCluster(t *testing.T, payload string) (*ownerCluster, *Node, time.Time) {
	t.Helper()
	oc := newOwnerCluster(t, 10, RetryPolicy{})
	sender := oc.nodes[3]
	at := oc.sim.Now().Add(time.Second)
	buf := sender.Bufs().Get()
	*buf = append((*buf)[:0], payload...)
	sender.SendBufToOwners(IDFromKey([]byte("parked")), buf, 2, at.UnixNano())
	oc.sim.RunFor(at.Sub(oc.sim.Now()) / 2)
	if len(walksOf(sender)) != 0 {
		t.Fatal("the owner walk has not finished half a second on")
	}
	return oc, sender, at
}

// receivers returns the nodes that received payload.
func (oc *ownerCluster) receivers(payload string) []ID {
	var ids []ID
	for _, n := range oc.nodes {
		for _, p := range oc.got[n.ID()] {
			if p == payload {
				ids = append(ids, n.ID())
			}
		}
	}
	return ids
}

// outstanding is how many buffers of the loop's list are taken and not back.
func outstanding(n *Node) uint64 {
	return n.cfg.Scratch.bufs.Misses() - uint64(n.cfg.Scratch.bufs.Len())
}

// TestParkedSendLeavesAtItsInstant: an owner send whose instant is ahead
// resolves its owners at once and sends at the instant — nothing before it,
// and one 5 ms link after it every remote owner has the payload (the sender,
// when it is an owner itself, delivers locally in the instant).
func TestParkedSendLeavesAtItsInstant(t *testing.T) {
	oc, sender, at := parkCluster(t, "on time")
	oc.sim.RunUntil(at.Add(-time.Nanosecond))
	if got := oc.receivers("on time"); len(got) != 0 {
		t.Fatalf("%d owners received the payload before its instant", len(got))
	}
	oc.sim.RunUntil(at.Add(5 * time.Millisecond))
	want := oc.byDistance(IDFromKey([]byte("parked")))[:2]
	got := oc.receivers("on time")
	if len(got) != 2 || (got[0] != want[0] && got[0] != want[1]) || (got[1] != want[0] && got[1] != want[1]) || got[0] == got[1] {
		t.Fatalf("one link after the instant the payload is at %v, want the two owners %v", got, want)
	}
	if n := outstanding(sender); n != 0 {
		t.Errorf("%d buffers still out after the send", n)
	}
}

// TestStaleParkSendsNothing: a parked send whose node closes before the
// instant, or closes and is built again in place (Init) with its ID and
// address, sends nothing — a package leaves only from the live holder that
// resolved it — and its buffer goes back to the loop's list.
func TestStaleParkSendsNothing(t *testing.T) {
	for _, rebuild := range []bool{false, true} {
		oc, sender, at := parkCluster(t, "stale")
		if outstanding(sender) != 1 {
			t.Fatalf("rebuild=%v: %d buffers out while the send is parked, want 1", rebuild, outstanding(sender))
		}
		if err := sender.Close(); err != nil {
			t.Fatal(err)
		}
		if rebuild {
			oc.sim.RunFor(time.Millisecond) // past the closing instant
			cfg := sender.cfg
			cfg.Endpoint = oc.net.Endpoint(sender.Contact().Addr)
			if err := sender.Init(cfg); err != nil {
				t.Fatal(err)
			}
		}
		oc.sim.RunUntil(at.Add(time.Second))
		if got := oc.receivers("stale"); len(got) != 0 {
			t.Errorf("rebuild=%v: the parked send reached %d owners", rebuild, len(got))
		}
		if n := outstanding(sender); n != 0 {
			t.Errorf("rebuild=%v: %d buffers still out past the instant", rebuild, n)
		}
	}
}
