package main

import (
	"hash/fnv"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/fault"
	"selfemerge/internal/scenario"
	"selfemerge/internal/stats"
)

// workload is one row of the ledger: a fixed shape run over a fixed list of
// scenario seeds. The seed list is part of the definition — both sides of a
// comparison simulate exactly the same missions — and only the number of
// reps over it (at least two passes) follows the -seconds budget.
type workload struct {
	name  string
	why   string
	seeds int
	// scenario is the point shape of the five scenario workloads; bulk-1m
	// (scenario == nil) drives selfemerge.NewNetwork directly.
	scenario *scenario.Config
}

var (
	joint2x2 = core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}
	share2x2 = core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 2, ShareN: 4, ShareM: []int{2}}
)

// steady120 is the canonical BenchmarkScenarioMissions point every other
// scenario workload is a variation of.
func steady120() scenario.Config {
	return scenario.Config{
		Nodes:         120,
		MaliciousRate: 0.1,
		Drop:          true,
		Alpha:         1,
		Missions:      30,
		Shards:        1,
		Plan:          joint2x2,
	}
}

func variant(edit func(*scenario.Config)) *scenario.Config {
	cfg := steady120()
	edit(&cfg)
	return &cfg
}

// Bulk-1m shape: missions per network, payload size, emerging period.
const (
	bulkMissions = 50
	bulkPayload  = 1 << 20
	bulkEmerging = time.Hour
	bulkNodes    = 60
)

var workloads = []workload{
	{
		name:     "steady-120",
		why:      "canonical 120-node churn+Sybil point on the classic loop: dht lookups, repair re-grants and joins do the work, crypto none",
		seeds:    30,
		scenario: variant(func(*scenario.Config) {}),
	},
	{
		name:  "faulty-120",
		why:   "steady-120 under burst faults with Retry=3: injector judgments, retry timers, re-sends and dedup; the only workload with drops",
		seeds: 30,
		scenario: variant(func(c *scenario.Config) {
			c.Fault, c.FaultSeverity, c.Retry = fault.ProfileBurst, 0.5, 3
		}),
	},
	{
		name:     "share-120",
		why:      "steady-120 with the key-share (2,4) plan: share scatter, Shamir split/combine and share re-grant repair run here only",
		seeds:    12,
		scenario: variant(func(c *scenario.Config) { c.Plan = share2x2 }),
	},
	{
		name:  "lockstep-600",
		why:   "600 nodes over 2 lockstep loops: the only workload where the epoch barrier and cross-shard hand-off drain do work",
		seeds: 10,
		scenario: variant(func(c *scenario.Config) {
			c.Nodes, c.Partition, c.Shards, c.Missions = 600, 2, 0, 20
		}),
	},
	{
		name:  "boot-2k",
		why:   "2000 loss-free nodes, 20 missions: setup (spawn, bootstrap lookups, table fill) is ~95% of host time, the proxy for the 100k point",
		seeds: 6,
		scenario: variant(func(c *scenario.Config) {
			c.Nodes, c.Alpha, c.MaliciousRate, c.Missions = 2000, 0, 0, 20
		}),
	},
	{
		name:  "bulk-1m",
		why:   "60-node network, 1 MiB payloads, one mission at a time: seal and cloud are over half the mission here and ~0 elsewhere",
		seeds: 3,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// missions is the number of missions one rep of the workload attempts.
func (w *workload) missions() int {
	if w.scenario == nil {
		return bulkMissions
	}
	return w.scenario.Missions
}

// repSeeds derives the workload's scenario seeds from the run seed: one
// Mix64 substream per workload name, one draw per rep, so workloads never
// share a network and a different -seed changes every generated input.
func (w *workload) repSeeds(runSeed uint64) []uint64 {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	stream := stats.Mix64(runSeed, h.Sum64())
	out := make([]uint64, w.seeds)
	for i := range out {
		out[i] = stats.Mix64(stream, uint64(i))
	}
	return out
}
