package dht

import (
	"fmt"
	"maps"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/transport"
)

// parkCluster is an owner cluster with one send from node 3 parked: the walk
// for its key has finished and the send waits for its instant, a second on.
// It returns the cluster, the sender and the instant.
func parkCluster(t *testing.T, payload string) (*ownerCluster, *Node, time.Time) {
	t.Helper()
	oc := newOwnerCluster(t, 10, 0)
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

// muteEndpoint sends nothing: a node behind it hears every request and
// answers none.
type muteEndpoint struct{ transport.Endpoint }

func (muteEndpoint) Send(transport.Addr, []byte) error { return nil }

// slowEndpoint sends each datagram delay late: a node behind it answers every
// request, but only after the delay.
type slowEndpoint struct {
	transport.Endpoint
	clock *sim.Simulator
	delay time.Duration
}

func (e slowEndpoint) Send(to transport.Addr, payload []byte) error {
	b := append([]byte(nil), payload...)
	e.clock.Schedule(e.delay, func() { _ = e.Endpoint.Send(to, b) })
	return nil
}

// stallKey is owned by a node other than stallCluster's sender.
var stallKey = IDFromKey([]byte("stalled"))

// stallCluster is an owner cluster whose node nearest to stallKey is built
// again in place on wrap of its endpoint, and in which node 3 then sends
// payload to stallKey's two owners, due 200 ms on. Every other
// peer answers the walk within a few 10 ms rounds; the wrapped node holds it
// out past the instant, to its answer or to the query's 500 ms timeout. It
// returns the cluster, the sender, the instant and the nodes nearest-first to
// the key.
func stallCluster(t *testing.T, payload string, wrap func(*sim.Simulator, transport.Endpoint) transport.Endpoint) (*ownerCluster, *Node, time.Time, []ID) {
	t.Helper()
	oc := newOwnerCluster(t, 10, 0)
	sender, order := oc.nodes[3], oc.byDistance(stallKey)
	if order[0] == sender.ID() {
		t.Fatal("the stalled key is owned by the sender; pick another")
	}
	for _, n := range oc.nodes {
		if n.ID() != order[0] {
			continue
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		oc.sim.RunFor(time.Millisecond)
		cfg := n.cfg
		cfg.Endpoint = wrap(oc.sim, oc.net.Endpoint(n.Contact().Addr))
		if err := n.Init(cfg); err != nil {
			t.Fatal(err)
		}
	}
	at := oc.sim.Now().Add(200 * time.Millisecond)
	buf := sender.Bufs().Get()
	*buf = append((*buf)[:0], payload...)
	sender.SendBufToOwners(stallKey, buf, 2, at.UnixNano())
	return oc, sender, at, order
}

// mute wraps an endpoint in a muteEndpoint.
func mute(_ *sim.Simulator, ep transport.Endpoint) transport.Endpoint { return muteEndpoint{ep} }

// slow wraps an endpoint in a slowEndpoint, 300 ms late: past the 200 ms
// instant, inside the 500 ms timeout.
func slow(clock *sim.Simulator, ep transport.Endpoint) transport.Endpoint {
	return slowEndpoint{Endpoint: ep, clock: clock, delay: 300 * time.Millisecond}
}

// copies counts the copies of payload each node received.
func (oc *ownerCluster) copies(payload string) map[ID]int {
	got := make(map[ID]int)
	for _, id := range oc.receivers(payload) {
		got[id]++
	}
	return got
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

// TestParkedSendLeavesWhileWalkStalls: a walk that the key's nearest peer
// holds out past the send's instant does not hold the send. It leaves at the
// instant to the walk's answer so far — the two nearest that have answered,
// never the peer still silent — and when the walk ends, a final owner that
// send missed gets exactly one copy and one it reached gets none more. A
// silent peer times out of the owner set and never gets the packet; a slow
// one answers, is a final owner, and gets it from the walk's end.
func TestParkedSendLeavesWhileWalkStalls(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*sim.Simulator, transport.Endpoint) transport.Endpoint
		// nearest is whether the key's nearest node ends up with a copy.
		nearest bool
	}{
		{"silent", mute, false},
		{"slow", slow, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oc, sender, at, order := stallCluster(t, "stalled", tc.wrap)
			oc.sim.RunUntil(at.Add(-time.Nanosecond))
			if got := oc.receivers("stalled"); len(got) != 0 {
				t.Fatalf("%d owners received the payload before its instant", len(got))
			}
			oc.sim.RunUntil(at.Add(5 * time.Millisecond))
			if len(walksOf(sender)) != 1 {
				t.Fatal("the walk ended before the instant: nothing stalls it")
			}
			if got, want := oc.copies("stalled"), map[ID]int{order[1]: 1, order[2]: 1}; !maps.Equal(got, want) {
				t.Fatalf("one link after the instant the payload is at %v, want one copy at each of the two nearest that answered %v", got, order[1:3])
			}
			oc.sim.RunFor(time.Second)
			if len(walksOf(sender)) != 0 {
				t.Fatal("the walk has not ended a second on")
			}
			want := map[ID]int{order[1]: 1, order[2]: 1}
			if tc.nearest {
				want[order[0]] = 1
			}
			if got := oc.copies("stalled"); !maps.Equal(got, want) {
				t.Fatalf("after the walk the payload is at %v, want one copy at each of %v", got, want)
			}
			if n, p := outstanding(sender), sendsOut(sender); n != 0 || p != 0 {
				t.Errorf("%d buffers and %d send records still out after the walk", n, p)
			}
		})
	}
}

// TestLateSendKeepsCallOrder: a send whose instant has passed joins a walk
// that already carries a parked send, and the two leave in call order. The
// walk is held out past the parked send's instant by the key's slow nearest
// peer; at its end the parked send tops up that peer, which its instant
// missed, and then the late send goes to its two final owners.
func TestLateSendKeepsCallOrder(t *testing.T) {
	oc, sender, at, order := stallCluster(t, "parked", slow)
	sendToOwners(sender, stallKey, "late", 2)
	if w := walksOf(sender)[stallKey]; w == nil || len(w.sends) != 2 {
		t.Fatal("the late send did not join the parked send's walk")
	}
	oc.sim.RunUntil(at.Add(5 * time.Millisecond))
	if len(walksOf(sender)) != 1 || len(oc.got[order[0]]) != 0 {
		t.Fatal("the walk ended before the instant: nothing stalls it")
	}
	oc.sim.RunFor(time.Second)
	for i, want := range []string{"[parked late]", "[parked late]", "[parked]"} {
		if got := fmt.Sprint(oc.got[order[i]]); got != want {
			t.Errorf("rank-%d owner received %s, want %s", i, got, want)
		}
	}
	if n, p := outstanding(sender), sendsOut(sender); n != 0 || p != 0 {
		t.Errorf("%d buffers and %d send records still out after the walk", n, p)
	}
}

// TestStaleParkSendsNothing: a parked send whose node closes before the
// instant, or closes and is built again in place (Init) with its ID and
// address, sends nothing — a package leaves only from the live holder that
// resolved it — whether its walk had ended or was held out by a silent peer,
// and its buffer and record go back to the loop's lists.
func TestStaleParkSendsNothing(t *testing.T) {
	for _, stall := range []bool{false, true} {
		for _, rebuild := range []bool{false, true} {
			payload := "stale"
			var oc *ownerCluster
			var sender *Node
			var at time.Time
			if stall {
				oc, sender, at, _ = stallCluster(t, payload, mute)
				oc.sim.RunFor(at.Sub(oc.sim.Now()) / 2)
				if len(walksOf(sender)) != 1 {
					t.Fatal("the stalled walk ended before the close")
				}
			} else {
				oc, sender, at = parkCluster(t, payload)
			}
			if outstanding(sender) != 1 || sendsOut(sender) != 1 {
				t.Fatalf("stall=%v rebuild=%v: %d buffers and %d records out while the send is parked, want 1 each",
					stall, rebuild, outstanding(sender), sendsOut(sender))
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
			if got := oc.receivers(payload); len(got) != 0 {
				t.Errorf("stall=%v rebuild=%v: the parked send reached %d owners", stall, rebuild, len(got))
			}
			if n, p := outstanding(sender), sendsOut(sender); n != 0 || p != 0 {
				t.Errorf("stall=%v rebuild=%v: %d buffers and %d send records still out past the instant", stall, rebuild, n, p)
			}
		}
	}
}
