package scenario_test

import (
	"reflect"
	"runtime"
	"testing"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/scenario"
)

// TestShardOneMatchesHistoricalRun pins the exact outcome of two unsharded
// configurations as measured before the shard engine (and the pooled
// simulator event loop) landed. Shards=1 — and the default Shards=0 — must
// keep reproducing the historical single-network runs bit for bit: these
// counts are the contract that sharding is an opt-in change of the point
// descriptor, never a silent change of what existing points measure. Result
// and churn are the pre-coalescing outcomes; only the fabric counter has
// moved since, with each datagram cut (CHANGES.md lists each move).
func TestShardOneMatchesHistoricalRun(t *testing.T) {
	cases := []struct {
		cfg          scenario.Config
		live         scenario.Result
		deaths, sent int
	}{
		{
			cfg: scenario.Config{Nodes: 120, MaliciousRate: 0.2, Alpha: 1, Missions: 30,
				Plan: core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}, MCTrials: 40, Seed: 11,
				Live: experiment.Live{Strategy: adversary.StrategyDrop}},
			live:   scenario.Result{Missions: 30, Released: 5, Delivered: 12, Succeeded: 11},
			deaths: 227, sent: 20427,
		},
		{
			cfg: scenario.Config{Nodes: 120, MaliciousRate: 0.1, Alpha: 1, Missions: 24,
				Plan: core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{2, 2}}, MCTrials: 10, Seed: 21},
			live:   scenario.Result{Missions: 24, Released: 3, Delivered: 18, Succeeded: 15},
			deaths: 245, sent: 58451,
		},
	}
	for _, shards := range []int{0, 1} {
		for i, c := range cases {
			cfg := c.cfg
			cfg.Shards = shards
			report, err := scenario.Measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if report.Live != c.live {
				t.Errorf("case %d shards=%d: live %+v, want historical %+v", i, shards, report.Live, c.live)
			}
			if report.Deaths != c.deaths || report.Joins != c.deaths {
				t.Errorf("case %d shards=%d: churn %d/%d, want %d/%d", i, shards, report.Deaths, report.Joins, c.deaths, c.deaths)
			}
			if report.Sent != c.sent {
				t.Errorf("case %d shards=%d: sent %d, want %d", i, shards, report.Sent, c.sent)
			}
		}
	}
}

// shardedCfg is the sharded point most tests below measure.
func shardedCfg(shards int) scenario.Config {
	return scenario.Config{
		Nodes:         120,
		MaliciousRate: 0.2,
		Alpha:         1,
		Missions:      30,
		Shards:        shards,
		Plan:          core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2},
		MCTrials:      40,
		Seed:          11,
		Live:          experiment.Live{Strategy: adversary.StrategyDrop},
	}
}

// TestShardedPointDeterministicAcrossGOMAXPROCS: the merged result of a
// sharded point is a pure function of its descriptor — identical whether the
// shards ran one at a time on a single core or spread over all of them.
func TestShardedPointDeterministicAcrossGOMAXPROCS(t *testing.T) {
	measure := func() *scenario.Report {
		report, err := scenario.Measure(shardedCfg(4))
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	wide := measure()
	prev := runtime.GOMAXPROCS(1)
	narrow := measure()
	runtime.GOMAXPROCS(prev)
	if wide.Live != narrow.Live {
		t.Errorf("sharded point differs across GOMAXPROCS: %+v vs %+v", wide.Live, narrow.Live)
	}
	if wide.Deaths != narrow.Deaths || wide.Joins != narrow.Joins ||
		wide.Sent != narrow.Sent || wide.Recv != narrow.Recv || wide.Dropped != narrow.Dropped {
		t.Errorf("sharded observability differs across GOMAXPROCS: %+v vs %+v", wide, narrow)
	}
	// And across repeated runs at the same width.
	again := measure()
	if wide.Live != again.Live || wide.Sent != again.Sent {
		t.Errorf("sharded point not reproducible: %+v vs %+v", wide.Live, again.Live)
	}
}

// TestShardedPointMergesShardRuns: a sharded point is exactly the fixed-order
// merge of its per-shard single-network runs — same mission split, same
// derived seeds — executed here by hand through the public API. The point runs
// burst faults, retries and two event loops, so every counter is nonzero and
// the whole Counters record is compared.
func TestShardedPointMergesShardRuns(t *testing.T) {
	const shards = 3
	cfg := func(shards int) scenario.Config {
		c := shardedCfg(shards)
		c.Fault, c.FaultSeverity, c.Retry, c.Partition = fault.ProfileBurst, 0.5, 3, 2
		return c
	}
	sharded, err := scenario.Measure(cfg(shards))
	if err != nil {
		t.Fatal(err)
	}
	var merged scenario.Result
	var counters experiment.Counters
	for i := 0; i < shards; i++ {
		sc := cfg(1)
		sc.Missions = 10 // 30 missions over 3 shards
		sc.Seed = scenario.ShardSeed(sc.Seed, i)
		rep, err := scenario.Measure(sc)
		if err != nil {
			t.Fatal(err)
		}
		merged.Missions += rep.Live.Missions
		merged.Released += rep.Live.Released
		merged.Delivered += rep.Live.Delivered
		merged.Succeeded += rep.Live.Succeeded
		counters.Add(rep.Counters)
	}
	if sharded.Live != merged {
		t.Errorf("sharded point %+v != merged shard runs %+v", sharded.Live, merged)
	}
	if sharded.Counters != counters {
		t.Errorf("sharded counters %+v != merged %+v", sharded.Counters, counters)
	}
	v := reflect.ValueOf(counters)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("counter %s is zero: the point does not exercise it", v.Type().Field(i).Name)
		}
	}
}

// TestShardSeedDerivation: shard 0 keeps the point seed (the shards=1
// compatibility anchor); higher shards get distinct decorrelated seeds.
func TestShardSeedDerivation(t *testing.T) {
	if got := scenario.ShardSeed(42, 0); got != 42 {
		t.Errorf("shard 0 seed = %d, want the point seed", got)
	}
	seen := map[uint64]int{42: 0}
	for i := 1; i < 64; i++ {
		s := scenario.ShardSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shards %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if scenario.ShardSeed(42, 1) == scenario.ShardSeed(43, 1) {
		t.Error("adjacent point seeds collide at shard 1")
	}
}

// TestShardClampAndValidation: more shards than missions clamp (every shard
// runs at least one mission), negative counts are rejected, and Setup
// refuses to boot a multi-shard config as a single network.
func TestShardClampAndValidation(t *testing.T) {
	cfg := shardedCfg(64)
	cfg.Missions = 5
	report, err := scenario.Measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Config.Shards != 5 {
		t.Errorf("64 shards over 5 missions defaulted to %d, want clamp to 5", report.Config.Shards)
	}
	if report.Live.Missions != 5 {
		t.Errorf("clamped run measured %d missions, want 5", report.Live.Missions)
	}

	bad := shardedCfg(-1)
	if _, err := scenario.Measure(bad); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, _, err := scenario.Setup(shardedCfg(2)); err == nil {
		t.Error("Setup booted a multi-shard config as one network")
	}
	if _, _, err := scenario.Setup(shardedCfg(1)); err != nil {
		t.Errorf("Setup rejected a one-shard config: %v", err)
	}
}

// TestReferenceKeyIgnoresLiveOnlyKnobs: a reference keys exactly what its
// Estimate reads. The abstract model has no shards, event loops, fabric
// faults or retries, so configs that differ only in those knobs share a
// cache key — and the estimates the key stands for are equal.
func TestReferenceKeyIgnoresLiveOnlyKnobs(t *testing.T) {
	plain := shardedCfg(1)
	turned := shardedCfg(4)
	turned.Partition, turned.Retry = 2, 3
	turned.Fault, turned.FaultSeverity = fault.ProfileBurst, 0.5
	plainRel, plainDel := plain.References()
	turnedRel, turnedDel := turned.References()
	for _, pair := range [][2]scenario.Reference{{plainRel, turnedRel}, {plainDel, turnedDel}} {
		if pair[0].Key() != pair[1].Key() {
			t.Errorf("live-only knobs split the reference key:\n%s\n%s", pair[0].Key(), pair[1].Key())
		}
		want, err := pair[0].Estimate()
		if err != nil {
			t.Fatal(err)
		}
		got, err := pair[1].Estimate()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("equal keys, different estimates: %+v vs %+v", got, want)
		}
	}
	// What Estimate does read still splits the key.
	reseeded := shardedCfg(1)
	reseeded.Seed++
	if rel, _ := reseeded.References(); rel.Key() == plainRel.Key() {
		t.Errorf("seeds %d and %d share a reference key: %s", plain.Seed, reseeded.Seed, rel.Key())
	}
}
