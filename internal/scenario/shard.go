package scenario

import (
	"runtime"

	selfemerge "selfemerge"
	"selfemerge/internal/par"
	"selfemerge/internal/stats"
)

// ShardSeed derives the seed of shard i from the point seed. Shard 0 keeps
// the point seed itself, so a one-shard point is byte-identical to the
// historical single-network run; higher shards draw decorrelated SplitMix64
// substreams. The derivation depends only on (seed, shard) — never on the
// shard count or any execution-time state — which is what makes the merged
// point result a pure function of its descriptor, and lets any single shard
// be re-run standalone as a Shards=1 config with this seed.
func ShardSeed(seed uint64, shard int) uint64 {
	if shard == 0 {
		return seed
	}
	return stats.Mix64(seed, uint64(shard))
}

// shardConfigs splits a defaulted config into its per-shard single-network
// configs: shard i runs Missions/Shards missions (the first Missions mod
// Shards shards carry one extra) through a private network seeded from
// substream i. Each shard staggers its own missions over the full launch
// window, so the point spans the same simulated time regardless of S.
func (c Config) shardConfigs() []Config {
	base, extra := c.Missions/c.Shards, c.Missions%c.Shards
	out := make([]Config, c.Shards)
	for i := range out {
		sc := c
		sc.Shards = 1
		sc.Missions = base
		if i < extra {
			sc.Missions++
		}
		sc.Seed = ShardSeed(c.Seed, i)
		out[i] = sc
	}
	return out
}

// shardSlots caps the shard networks running at once in the process at
// GOMAXPROCS: a sweep's point workers each run their point's shards, and
// without one cap over both, workers × shards networks would oversubscribe
// the cores. Taking a slot only throttles; it never changes a result.
var shardSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// runShard executes the three live phases for one single-network shard
// config and fills out's live result and counters.
func runShard(cfg Config, out *Report) error {
	shardSlots <- struct{}{}
	defer func() { <-shardSlots }()
	net, err := selfemerge.NewNetwork(cfg.network())
	if err != nil {
		return err
	}
	msgs, err := Drive(cfg, net)
	if err != nil {
		return err
	}
	out.Live = Score(cfg, net, msgs)
	c := &out.Counters
	c.Deaths, c.Joins = net.ChurnEvents()
	c.Sent, c.Recv, c.Dropped = net.FabricStats()
	rs := net.ResilienceStats()
	c.Retries, c.Recovered, c.Duplicates = rs.Retries, rs.Recovered, rs.Duplicates
	c.Epochs, c.IdleSkips, c.MergeAllocs = net.LoopStats()
	c.Sends = net.SendCounts()
	return nil
}

// measureShards runs every shard of the defaulted config on up to GOMAXPROCS
// goroutines and merges their outcomes in fixed shard order into the report.
// The goroutine schedule never leaks into the result: each shard is
// deterministic under its derived seed, and the merge order is the shard
// index, so the merged point is identical under GOMAXPROCS=1 (one shard at a
// time) and a full multi-core run.
func measureShards(cfg Config, report *Report) error {
	shards := cfg.shardConfigs()
	outs := make([]Report, len(shards))
	if err := par.Do(len(shards), 0, func(i int) error { return runShard(shards[i], &outs[i]) }); err != nil {
		return err
	}
	for _, out := range outs {
		report.Live.Missions += out.Live.Missions
		report.Live.Released += out.Live.Released
		report.Live.Delivered += out.Live.Delivered
		report.Live.Succeeded += out.Live.Succeeded
		report.Counters.Add(out.Counters)
	}
	return nil
}
