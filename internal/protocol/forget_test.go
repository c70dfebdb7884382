package protocol_test

import (
	"bytes"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
)

// TestForwardedCustodyKeepsNothing: a holder keeps its layer and layer key
// for one holding period and then passes them on. After emergence every
// record that sent its package on holds no key, no plaintext, no shares and
// no custody clone, and replaying each packet such a record received — an
// honest late duplicate — allocates nothing and schedules no event, so the
// dropped material cannot grow back. Repair and its retry are on, so the
// records' repair loops run too.
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

			forwarded := make(map[*Host]map[protocol.Ref]string)
			records := 0
			check := func(when string) {
				for _, h := range tb.hosts {
					recs := protocol.ForwardedCustody(h, m.ID)
					for ref, kept := range recs {
						if kept != "" {
							t.Errorf("%s: %s record at %+v keeps %s", when, h.Node().ID().Short(), ref, kept)
						}
					}
					forwarded[h] = recs
					records += len(recs)
				}
			}
			check("after emergence")
			if records == 0 {
				t.Fatal("no record sent its package on")
			}

			replayed := 0
			for _, r := range log {
				pkt, err := DecodePacket(r.payload)
				if err != nil || pkt.Mission != m.ID {
					continue
				}
				if _, ok := forwarded[r.host][pkt.Ref()]; !ok {
					continue
				}
				replayed++
				pending := tb.sim.Pending()
				if allocs := testing.AllocsPerRun(10, func() { r.host.HandleApp(r.from, r.payload) }); allocs != 0 {
					t.Errorf("replaying a %v at a forwarded record allocates %.0f times", pkt.Kind, allocs)
				}
				if got := tb.sim.Pending(); got != pending {
					t.Errorf("replaying a %v at a forwarded record scheduled %d events", pkt.Kind, got-pending)
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
