package protocol_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
)

// TestForwardedCustodyKeepsNothing: a holder keeps its layer and layer key
// for one holding period and then passes them on. After emergence no host
// owes a record of the mission: each record that sent its package on left a
// tombstone at its Ref, and went back to its loop's free list holding no
// key, no plaintext, no shares and no custody clone. Replaying each packet a
// forgotten Ref received — an honest late duplicate — allocates nothing and
// schedules no event, so the dropped material cannot grow back. Repair and
// its retry are on, so the records' repair loops run too.
func TestForwardedCustodyKeepsNothing(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nodes    int
		plan     core.Plan
		emerging time.Duration
	}{
		{"central", 30, core.PlanCentral(0), 2 * time.Hour},
		{"joint", 40, core.Plan{Scheme: core.SchemeJoint, K: 3, L: 3}, 3 * time.Hour},
		{"share", 60, core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}}, 3 * time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, tc.nodes, 0, false, func(cfg *HostConfig, node *dht.Config) { cfg.Repair, node.Retry = true, 3 })
			type received struct {
				host    *Host
				from    dht.Contact
				payload []byte
			}
			var log []received
			tb.tap = func(h *Host, from dht.Contact, payload []byte) {
				log = append(log, received{h, from, bytes.Clone(payload)})
			}
			m := tb.launch(tc.plan, tc.emerging)
			tb.assertEmerges(m)

			forgotten, refs := make(map[*Host][]protocol.Ref), 0
			check := func(when string) {
				for _, h := range tb.hosts {
					held, gone := protocol.Custody(h, m.ID)
					if len(held) != 0 {
						t.Errorf("%s: %s holds records at %+v", when, h.Node().ID().Short(), held)
					}
					if when == "after emergence" {
						forgotten[h], refs = gone, refs+len(gone)
					}
					for i, kept := range protocol.FreeCustody(h) {
						if kept != "" {
							t.Fatalf("%s: free record %d of %s's loop keeps %s", when, i, h.Node().ID().Short(), kept)
						}
					}
				}
			}
			check("after emergence")
			if refs == 0 {
				t.Fatal("no record sent its package on")
			}

			replayed := 0
			for _, r := range log {
				pkt, err := DecodePacket(r.payload)
				if err != nil || pkt.Mission != m.ID || !slices.Contains(forgotten[r.host], pkt.Ref()) {
					continue
				}
				replayed++
				pending := tb.sim.Pending()
				if allocs := testing.AllocsPerRun(10, func() { r.host.HandleApp(r.from, r.payload) }); allocs != 0 {
					t.Errorf("replaying a %v at a forgotten Ref allocates %.0f times", pkt.Kind, allocs)
				}
				if got := tb.sim.Pending(); got != pending {
					t.Errorf("replaying a %v at a forgotten Ref scheduled %d events", pkt.Kind, got-pending)
				}
			}
			if replayed == 0 {
				t.Fatal("no packet replayed")
			}
			tb.sim.Run()
			check("after replay")
		})
	}
}
