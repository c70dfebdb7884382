package protocol_test

import (
	"fmt"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/transport"
)

// TestShareRepairRegrantsToReplacement is the churn-repair contract of the
// key share scheme: a share custodian that dies mid-holding-period is
// replaced by a same-zone join, and before the column's forward deadline
// (HoldUntil) a surviving sibling custodian re-grants the column-key shares
// it holds — the just-in-time share repair mirroring the multipath schemes'
// column-key re-grant.
func TestShareRepairRegrantsToReplacement(t *testing.T) {
	repair := func(cfg *HostConfig, _ *dht.Config) { cfg.Repair = true }
	tb := newTestbed(t, 60, 0, false, repair)
	plan := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}}
	m := tb.launch(plan, 3*time.Hour) // holding period th = 1h

	// Column-2 material scatters at ts+1h; let it land.
	tb.sim.RunUntil(m.Start.Add(time.Hour + time.Minute))

	// Pick a column-2 custodian that is not infrastructure (bootstrap,
	// receiver, dispatcher) and really holds the scattered shares.
	victimIdx, victimSlot := -1, -1
	for s := 0; s < plan.ShareN && victimIdx < 0; s++ {
		owner := tb.ownerOf(SlotID(m.ID, 2, s))
		for i, node := range tb.nodes {
			if node == owner && i > 2 {
				if col, _ := tb.hosts[i].ShareInventory(m.ID, 2, s); col >= plan.ShareM[0] {
					victimIdx, victimSlot = i, s
				}
				break
			}
		}
	}
	if victimIdx < 0 {
		t.Skip("no killable column-2 custodian (slots landed on infrastructure)")
	}

	// Kill the custodian mid-period and join its same-zone replacement:
	// same identifier and address, wiped state.
	victim := tb.nodes[victimIdx]
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	addr := transport.Addr(fmt.Sprintf("n%d", victimIdx))
	_, replacement := tb.spawn(addr, victim.ID(), false, false, repair)
	tb.nodes[victimIdx] = tb.nodes[len(tb.nodes)-1]
	tb.nodes = tb.nodes[:len(tb.nodes)-1]
	tb.hosts[victimIdx] = tb.hosts[len(tb.hosts)-1]
	tb.hosts = tb.hosts[:len(tb.hosts)-1]
	tb.nodes[victimIdx].Bootstrap([]dht.Contact{tb.nodes[0].Contact()}, nil)

	// Before the repair tick (1/16 of a period ahead of the deadline) the
	// replacement has nothing: its state died with the predecessor.
	tb.sim.RunUntil(m.Start.Add(time.Hour + 50*time.Minute))
	if col, _ := replacement.ShareInventory(m.ID, 2, victimSlot); col != 0 {
		t.Fatalf("replacement held %d shares before the repair window", col)
	}

	// Strictly before HoldUntil (ts+2h) the re-grant must have refilled the
	// replacement's column-share custody to at least the Shamir threshold.
	holdUntil := m.Start.Add(2 * time.Hour)
	tb.sim.RunUntil(holdUntil.Add(-time.Minute))
	col, _ := replacement.ShareInventory(m.ID, 2, victimSlot)
	if col < plan.ShareM[0] {
		t.Fatalf("replacement held %d column shares before HoldUntil, want >= %d (no re-grant)",
			col, plan.ShareM[0])
	}

	// The mission itself still emerges: the other chains were untouched.
	tb.assertEmerges(m)
}

// TestShareRepairDisabledLeavesReplacementEmpty is the control: without
// Repair the replacement join receives nothing, confirming the re-grant
// above came from the repair path rather than stray retransmissions.
func TestShareRepairDisabledLeavesReplacementEmpty(t *testing.T) {
	tb := newTestbed(t, 60, 0, false)
	plan := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}}
	m := tb.launch(plan, 3*time.Hour)
	tb.sim.RunUntil(m.Start.Add(time.Hour + time.Minute))

	victimIdx, victimSlot := -1, -1
	for s := 0; s < plan.ShareN && victimIdx < 0; s++ {
		owner := tb.ownerOf(SlotID(m.ID, 2, s))
		for i, node := range tb.nodes {
			if node == owner && i > 2 {
				if col, _ := tb.hosts[i].ShareInventory(m.ID, 2, s); col >= plan.ShareM[0] {
					victimIdx, victimSlot = i, s
				}
				break
			}
		}
	}
	if victimIdx < 0 {
		t.Skip("no killable column-2 custodian (slots landed on infrastructure)")
	}
	victim := tb.nodes[victimIdx]
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	_, replacement := tb.spawn(transport.Addr(fmt.Sprintf("n%d", victimIdx)), victim.ID(), false, false)
	tb.nodes[victimIdx] = tb.nodes[len(tb.nodes)-1]
	tb.nodes = tb.nodes[:len(tb.nodes)-1]
	tb.hosts[victimIdx] = tb.hosts[len(tb.hosts)-1]
	tb.hosts = tb.hosts[:len(tb.hosts)-1]
	tb.nodes[victimIdx].Bootstrap([]dht.Contact{tb.nodes[0].Contact()}, nil)

	tb.sim.RunUntil(m.Start.Add(2*time.Hour - time.Minute))
	if col, _ := replacement.ShareInventory(m.ID, 2, victimSlot); col != 0 {
		t.Fatalf("replacement held %d shares with repair disabled", col)
	}
}
