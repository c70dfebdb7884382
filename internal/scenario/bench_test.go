package scenario_test

import (
	"fmt"
	"runtime"
	"testing"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/fault"
	"selfemerge/internal/scenario"
)

// benchCfg is the shared shape of the scenario throughput benchmarks: a
// 120-node live network under alpha=1 replacement churn and a 10% Sybil
// drop attack, 30 missions, joint 2x2 plan.
func benchCfg(missions, shards int) scenario.Config {
	return scenario.Config{
		Nodes:         120,
		MaliciousRate: 0.1,
		Strategy:      adversary.StrategyDrop,
		Alpha:         1,
		Missions:      missions,
		Shards:        shards,
		Plan:          core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2},
		MCTrials:      1, // live throughput, not reference accuracy
		Seed:          17,
	}
}

// BenchmarkScenarioMissions measures live-scenario throughput — a full
// 120-node churn + adversary network driving 30 concurrent missions through
// the real stack — and reports missions per second of wall time, the number
// that bounds how fast live figure curves can be generated per core, and
// datagrams/op, the fabric's send count: a pure function of the seed, so CI
// gates it like allocs/op and a change that re-duplicates lookups fails on a
// count, not a timing. The gates are in BENCH_scenario.json at the repository
// root.
func BenchmarkScenarioMissions(b *testing.B) {
	benchMissions(b, benchCfg(30, 1))
}

// BenchmarkScenarioMissionsShare is the same point under the key-share
// (2,4) plan — the benchmark ledger's share-120 shape — where every
// forwarding holder hands its next-column holder several packets for one slot
// at one instant: the point that shows owner walks being shared.
func BenchmarkScenarioMissionsShare(b *testing.B) {
	cfg := benchCfg(30, 1)
	cfg.Plan = core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 2, ShareN: 4, ShareM: []int{2}}
	benchMissions(b, cfg)
}

func benchMissions(b *testing.B, cfg scenario.Config) {
	sent := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := scenario.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		sent += report.Sent
	}
	b.ReportMetric(float64(cfg.Missions*b.N)/b.Elapsed().Seconds(), "missions/sec")
	b.ReportMetric(float64(sent)/float64(b.N), "datagrams/op")
}

// BenchmarkScenarioMissionsParallel is the sharded counterpart: the same
// point partitioned over GOMAXPROCS independent network replicas executed
// concurrently. The mission count scales with the shard count so every
// shard drives the same per-network load as the serial benchmark, making
// missions/sec directly comparable: on an S-core runner the sharded point
// should approach S times the serial number.
func BenchmarkScenarioMissionsParallel(b *testing.B) {
	shards := runtime.GOMAXPROCS(0)
	missions := 30 * shards
	cfg := benchCfg(missions, shards)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(missions*b.N)/b.Elapsed().Seconds(), "missions/sec")
	b.ReportMetric(float64(shards), "shards")
}

// BenchmarkScenarioMissionsPartitioned measures the partition engine: ONE
// population (no replicas) split across S parallel event loops with
// cross-shard routing under the conservative epoch barrier. The population
// is larger than the replicate benchmarks' — partitioning pays off when the
// single event loop is the bottleneck, which takes a network too big to
// replicate cheaply. S=1 runs the same config through the partition
// machinery on one loop: the single-loop baseline the S=GOMAXPROCS number
// is compared against (the multi-core target is >1.5x). For a fixed S,
// results are byte-identical at any GOMAXPROCS or worker count; only the wall
// clock moves.
//
// The S=2 arm is fixed-shape on every machine, and its epochs/idle_skips/
// merge_allocs metrics are pure functions of the workload (not of core or
// worker counts) — that arm's epoch count is what CI gates, so a lookahead
// or barrier regression that multiplies the epoch count fails the build
// even when the wall clock hides it.
func BenchmarkScenarioMissionsPartitioned(b *testing.B) {
	shapes := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 {
		shapes = append(shapes, g)
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			const missions = 20
			cfg := benchCfg(missions, 1)
			cfg.Shards = 0
			cfg.Nodes = 600
			cfg.Partition = s
			var epochs, idleSkips, mergeAllocs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				report, err := scenario.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				epochs += report.Epochs
				idleSkips += report.IdleSkips
				mergeAllocs += report.MergeAllocs
			}
			b.ReportMetric(float64(missions*b.N)/b.Elapsed().Seconds(), "missions/sec")
			b.ReportMetric(float64(s), "loops")
			b.ReportMetric(float64(epochs)/float64(b.N), "epochs")
			b.ReportMetric(float64(idleSkips)/float64(b.N), "idle_skips")
			b.ReportMetric(float64(mergeAllocs)/float64(b.N), "merge_allocs")
		})
	}
}

// BenchmarkScenarioMissionsFaulty is the serial benchmark under the burst
// fault profile with retry hardening: the Gilbert–Elliott injector judges
// every datagram and the retry machinery re-sends through the drops, so this
// measures the fault path's full cost — injection draws, duplicate
// deliveries, two-phase retry timers, wire retention — against the clean
// BenchmarkScenarioMissions number. Named inside the ScenarioMissions CI
// smoke pattern deliberately: the race-detector smoke iteration covers the
// injector and retry concurrency.
func BenchmarkScenarioMissionsFaulty(b *testing.B) {
	cfg := benchCfg(30, 1)
	cfg.Fault = fault.ProfileBurst
	cfg.FaultSeverity = 0.5
	cfg.Retry = 3
	benchMissions(b, cfg)
}

// BenchmarkPartitionSmoke100k is the 100k-node partitioned live point: one
// population of 10^5 nodes over 8 event loops driving a small mission set.
// Deliberately named outside the ScenarioMissions CI smoke pattern — boot
// alone is minutes under the race detector. Run it on sized hardware:
//
//	go test -run '^$' -bench PartitionSmoke100k -benchtime 1x ./internal/scenario/
func BenchmarkPartitionSmoke100k(b *testing.B) {
	cfg := benchCfg(8, 1)
	cfg.Shards = 0
	cfg.Nodes = 100_000
	cfg.Alpha = 0 // boot + routing load is the point; churn scales separately
	cfg.Partition = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
