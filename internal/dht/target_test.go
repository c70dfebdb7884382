package dht

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// targetOf returns a node of oc that the sender's table holds, whose ID
// the sender is not first or second owner of, so a one-replica send to it
// walks and a two-replica send reaches two remote owners.
func (oc *ownerCluster) targetOf(t *testing.T, sender *Node) *Node {
	t.Helper()
	for _, n := range oc.nodes {
		if n != sender && sender.table.Contains(n.ID()) && oc.byDistance(n.ID())[1] != sender.ID() {
			return n
		}
	}
	t.Fatal("the sender's table holds no node it is not a near owner of")
	return nil
}

// fullWalk is the datagrams a plain Lookup of key from the sender costs on
// a fresh cluster that prep has readied: a walk of the whole window.
func fullWalk(t *testing.T, key ID, prep func(*ownerCluster)) int {
	oc := newOwnerCluster(t, 40, 0)
	prep(oc)
	return oc.sentBy(func() { oc.nodes[ownersTestSender].Lookup(key, func([]Contact) {}) })
}

// sendCountsBy runs fn and the simulator to quiescence and returns what the
// sender's loop counted meanwhile.
func (oc *ownerCluster) sendCountsBy(sender *Node, fn func()) (SendCounts, int) {
	before := sender.cfg.Scratch.Counts()
	sent := oc.sentBy(fn)
	after := sender.cfg.Scratch.Counts()
	return SendCounts{
		OwnerWalks:         after.OwnerWalks - before.OwnerWalks,
		OwnerWalksAtTarget: after.OwnerWalksAtTarget - before.OwnerWalksAtTarget,
		OwnerSendsSelf:     after.OwnerSendsSelf - before.OwnerSendsSelf,
		Riders:             after.Riders - before.Riders,
		AppSends:           after.AppSends - before.AppSends,
	}, sent
}

// slowFrom delays every datagram one address sends.
type slowFrom struct {
	addr  transport.Addr
	extra time.Duration
}

func (s slowFrom) Judge(_ time.Time, from, _ transport.Addr) simnet.Verdict {
	if from == s.addr {
		return simnet.Verdict{Extra: s.extra}
	}
	return simnet.Verdict{}
}

// TestOwnerWalkEndsAtLiveTarget: a one-replica send to a live node's ID ends
// its walk when that node answers. Asked first, as the nearest contact of
// the sender's table, it answers in the first round, so the walk costs at
// most alpha FIND_NODEs, their replies and the one app datagram; the payload
// reaches that node alone. When its reply is the slowest, the payload still
// leaves only once it has come: the walk ends on the target's answer, not on
// the first answer.
func TestOwnerWalkEndsAtLiveTarget(t *testing.T) {
	t.Run("first round", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		target := oc.targetOf(t, sender)
		counts, sent := oc.sendCountsBy(sender, func() {
			sendToOwners(sender, target.ID(), "own id", 1)
			if len(walksOf(sender)) != 1 {
				t.Fatal("a send to a contact's ID took no walk")
			}
		})
		if sent > 2*alpha+1 {
			t.Errorf("the walk to a live node's ID carried %d datagrams, want at most %d FIND_NODEs, their replies and one app",
				sent, alpha)
		}
		if got := oc.receivers("own id"); len(got) != 1 || got[0] != target.ID() {
			t.Errorf("payload at %v, want %s alone", got, target.ID().Short())
		}
		if want := (SendCounts{OwnerWalks: 1, OwnerWalksAtTarget: 1, AppSends: 1}); counts != want {
			t.Errorf("counts %+v, want %+v", counts, want)
		}
		released(t, sender)
	})
	t.Run("slowest reply", func(t *testing.T) {
		const lag = 50 * time.Millisecond
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		target := oc.targetOf(t, sender)
		oc.net.SetInjector(slowFrom{addr: target.Contact().Addr, extra: lag})
		t0 := oc.sim.Now()
		sendToOwners(sender, target.ID(), "slow", 1)
		// The query leaves at once and its reply lands one link plus the
		// lag after it arrives: nothing may reach anyone before then.
		oc.sim.RunUntil(t0.Add(2*5*time.Millisecond + lag - time.Nanosecond))
		if got := oc.receivers("slow"); len(got) != 0 {
			t.Errorf("payload at %v before the target answered", got)
		}
		oc.sim.Run()
		if got := oc.receivers("slow"); len(got) != 1 || got[0] != target.ID() {
			t.Errorf("payload at %v, want %s alone", got, target.ID().Short())
		}
		released(t, sender)
	})
}

// slowTo delays every datagram to one address, except those from another.
type slowTo struct {
	to, except transport.Addr
	extra      time.Duration
}

func (s slowTo) Judge(_ time.Time, from, to transport.Addr) simnet.Verdict {
	if to == s.to && from != s.except {
		return simnet.Verdict{Extra: s.extra}
	}
	return simnet.Verdict{}
}

// TestOwnerWalkDrainReturnsOneState: an owner walk with two riders ends when
// its target answers, with the rest of its first round still out. Its end
// hands all three sends their owner and leaves the walk no send; the drain
// then returns one lookup state to the loop, the only one the walk took.
func TestOwnerWalkDrainReturnsOneState(t *testing.T) {
	const lag = 50 * time.Millisecond
	oc := newOwnerCluster(t, 40, 0)
	sender := oc.nodes[ownersTestSender]
	target := oc.targetOf(t, sender)
	oc.net.SetInjector(slowTo{to: sender.Contact().Addr, except: target.Contact().Addr, extra: lag})
	// Empty the lookup list, so what the walk takes and gives back shows.
	lookups := &sender.cfg.Scratch.lookups
	var held []*lookupState
	for lookups.Len() > 0 {
		held = append(held, lookups.Get())
	}
	misses := lookups.Misses()
	payloads := []string{"first", "rider 1", "rider 2"}
	for _, p := range payloads {
		sendToOwners(sender, target.ID(), p, 1)
	}
	ls := walksOf(sender)[target.ID()]
	if ls == nil || len(ls.sends) != len(payloads) {
		t.Fatalf("walks in flight %v: want one walk with %d sends", walksOf(sender), len(payloads))
	}
	oc.sim.RunFor(lag / 2) // the target has answered; the other queries have not
	if len(walksOf(sender)) != 0 || !ls.finished || ls.inflight == 0 || len(ls.sends) != 0 || lookups.Len() != 0 {
		t.Fatalf("after the target's answer: %d walks indexed, finished %v, %d queries out, %d sends, %d states free; want 0, true, some, 0, 0",
			len(walksOf(sender)), ls.finished, ls.inflight, len(ls.sends), lookups.Len())
	}
	oc.sim.Run()
	if lookups.Len() != 1 || lookups.Misses() != misses+1 {
		t.Errorf("after the drain: %d states free and %d taken new, want 1 and 1", lookups.Len(), lookups.Misses()-misses)
	}
	if back := lookups.Get(); back != ls || back.node != nil || len(back.sends) != 0 {
		t.Errorf("the state back on the list is not the walk's, cleared: %+v", back)
	}
	for _, p := range payloads {
		if got := oc.receivers(p); len(got) != 1 || got[0] != target.ID() {
			t.Errorf("%q at %v, want %s alone", p, got, target.ID().Short())
		}
	}
	released(t, sender)
	for _, h := range held {
		lookups.Put(h)
	}
}

// TestOwnerWalkWithoutLiveTargetKeepsWindow: a one-replica send to the ID of
// a closed node, or to an ID no node holds, walks the whole window — the
// same datagrams as a Lookup of the key, plus the app — and ends at the
// XOR-closest live node.
func TestOwnerWalkWithoutLiveTargetKeepsWindow(t *testing.T) {
	closed := func(oc *ownerCluster) ID {
		target := oc.targetOf(t, oc.nodes[ownersTestSender])
		if err := target.Close(); err != nil {
			t.Fatal(err)
		}
		oc.sim.Run()
		return target.ID()
	}
	for _, c := range []struct {
		name string
		prep func(*ownerCluster) ID
	}{
		{"closed node", closed},
		{"no node", func(*ownerCluster) ID { return IDFromKey([]byte("held by nobody")) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			oc := newOwnerCluster(t, 40, 0)
			key := c.prep(oc)
			sender := oc.nodes[ownersTestSender]
			counts, sent := oc.sendCountsBy(sender, func() { sendToOwners(sender, key, "x", 1) })
			if want := fullWalk(t, key, func(oc *ownerCluster) { c.prep(oc) }) + 1; sent != want {
				t.Errorf("the walk carried %d datagrams, want a full Lookup's and one app: %d", sent, want)
			}
			var owner ID
			for _, id := range oc.byDistance(key) {
				if id != key {
					owner = id
					break
				}
			}
			if got := oc.receivers("x"); len(got) != 1 || got[0] != owner {
				t.Errorf("payload at %v, want the closest live node %s alone", got, owner.Short())
			}
			if counts.OwnerWalks != 1 || counts.OwnerWalksAtTarget != 0 {
				t.Errorf("counts %+v, want one walk that did not end at its target", counts)
			}
			released(t, sender)
		})
	}
}

// TestOwnerWalkTwoReplicasKeepsWindow: a walk to a live node's ID that
// carries a two-replica send walks the whole window, whether that send
// started the walk or rode a one-replica send's: the second owner is not
// known until the window has answered.
func TestOwnerWalkTwoReplicasKeepsWindow(t *testing.T) {
	for _, replicas := range [][]int{{2}, {1, 2}} {
		t.Run(fmt.Sprint(replicas), func(t *testing.T) {
			oc := newOwnerCluster(t, 40, 0)
			sender := oc.nodes[ownersTestSender]
			key := oc.targetOf(t, sender).ID()
			apps := 0
			counts, sent := oc.sendCountsBy(sender, func() {
				for _, r := range replicas {
					sendToOwners(sender, key, fmt.Sprintf("r%d", r), r)
					apps += r
				}
			})
			if want := fullWalk(t, key, func(*ownerCluster) {}) + apps; sent != want {
				t.Errorf("the walk carried %d datagrams, want a full Lookup's and %d apps: %d", sent, apps, want)
			}
			owners := oc.byDistance(key)
			for _, r := range replicas {
				got := oc.receivers(fmt.Sprintf("r%d", r))
				slices.SortFunc(got, func(a, b ID) int { return key.DistanceCompare(a, b) })
				if !slices.Equal(got, owners[:r]) {
					t.Errorf("the %d-replica payload is at %v, want %v", r, got, owners[:r])
				}
			}
			if counts.OwnerWalks != 1 || counts.OwnerWalksAtTarget != 0 || counts.Riders != uint64(len(replicas)-1) {
				t.Errorf("counts %+v, want one walk to its full window and %d riders", counts, len(replicas)-1)
			}
		})
	}
}
