package scenario_test

import (
	"testing"

	"selfemerge/internal/scenario"
)

// TestOwnerWalksExact pins how many owner walks find their key's true owner
// (dht.SendCounts.OwnerWalksExact): the node XOR-closest to the key in the
// whole population, as the network's owner oracle names it. The shapes are
// the steady-120, lockstep-600 and boot-2k ledger workloads; the counts are
// pure functions of the seeds, so a change that moves a routing decision —
// a table that admits or orders contacts differently, a walk that stops
// sooner — moves them, and one meant to make routing exact shows here by how
// much. At 120 nodes every walk is exact; at 600 and 2000 a few percent end
// at nodes whose tables hold no contact in the key's part of the ID space
// (ROADMAP item 14).
func TestOwnerWalksExact(t *testing.T) {
	shapes := []struct {
		name         string
		edit         func(*scenario.Config)
		seeds        int
		walks, exact uint64
	}{
		{"steady-120", func(*scenario.Config) {}, 6, 1522, 1522},
		{"lockstep-600", func(c *scenario.Config) { c.Nodes, c.Partition, c.Shards, c.Missions = 600, 2, 0, 20 }, 4, 657, 632},
		{"boot-2k", func(c *scenario.Config) { c.Nodes, c.Alpha, c.MaliciousRate, c.Missions = 2000, 0, 0, 20 }, 4, 967, 930},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var walks, exact uint64
			for seed := uint64(1); seed <= uint64(sh.seeds); seed++ {
				cfg := scenario.Config{
					Nodes: 120, MaliciousRate: 0.1, Drop: true, Alpha: 1,
					Missions: 30, Shards: 1, Plan: jointPlan, Seed: seed,
				}
				sh.edit(&cfg)
				report, err := scenario.Measure(cfg)
				if err != nil {
					t.Fatal(err)
				}
				walks += report.Sends.OwnerWalks
				exact += report.Sends.OwnerWalksExact
			}
			if walks != sh.walks || exact != sh.exact {
				t.Errorf("%d of %d owner walks exact (%.3f), want %d of %d (%.3f)",
					exact, walks, float64(exact)/float64(walks), sh.exact, sh.walks, float64(sh.exact)/float64(sh.walks))
			}
		})
	}
}
