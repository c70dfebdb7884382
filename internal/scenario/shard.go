package scenario

import (
	"runtime"
	"sync"
	"sync/atomic"

	selfemerge "selfemerge"
	"selfemerge/internal/experiment"
	"selfemerge/internal/stats"
)

// Budget caps how many shard event loops run at once across every scenario
// sharing it. The live estimator hands one budget (sized to the core count)
// to all points of a sweep, so the runner's point-level workers and the
// shards inside each point draw from a single concurrency pool instead of
// multiplying into oversubscription. It is purely an execution throttle:
// shard results are merged in fixed shard order, so any budget — including
// none — yields byte-identical results.
type Budget struct {
	sem chan struct{}
}

// NewBudget returns a budget with the given number of concurrent slots
// (minimum 1).
func NewBudget(slots int) *Budget {
	if slots < 1 {
		slots = 1
	}
	return &Budget{sem: make(chan struct{}, slots)}
}

func (b *Budget) acquire() { b.sem <- struct{}{} }
func (b *Budget) release() { <-b.sem }

// Slots reports the budget's concurrency capacity.
func (b *Budget) Slots() int { return cap(b.sem) }

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
		sc.Budget = nil
		sc.Missions = base
		if i < extra {
			sc.Missions++
		}
		sc.Seed = ShardSeed(c.Seed, i)
		out[i] = sc
	}
	return out
}

// shardOutcome is one shard's complete contribution to the merged report.
type shardOutcome struct {
	live Result
	experiment.Counters
	err error
}

// runShard executes the three live phases for one single-network shard
// config.
func runShard(cfg Config) (out shardOutcome) {
	net, err := selfemerge.NewNetwork(cfg.network())
	if err != nil {
		return shardOutcome{err: err}
	}
	msgs, err := Drive(cfg, net)
	if err != nil {
		return shardOutcome{err: err}
	}
	out.live = Score(cfg, net, msgs)
	c := &out.Counters
	c.Deaths, c.Joins = net.ChurnEvents()
	c.Sent, c.Recv, c.Dropped = net.FabricStats()
	rs := net.ResilienceStats()
	c.Retries, c.Recovered, c.Duplicates = rs.Retries, rs.Recovered, rs.Duplicates
	c.Epochs, c.IdleSkips, c.MergeAllocs = net.LoopStats()
	return out
}

// measureShards runs every shard of the defaulted config — concurrently, up
// to the budget — and merges their outcomes in fixed shard order into the
// report. The goroutine schedule never leaks into the result: each shard is
// deterministic under its derived seed, and the merge order is the shard
// index, so the merged point is identical under GOMAXPROCS=1 and a full
// multi-core run.
//
// The spawn itself is bounded to the budget's slot count: min(S, slots)
// workers pull shard indices from a shared cursor, so a 1000-shard point on
// a sweep-wide 8-slot budget parks 8 goroutines on the semaphore instead of
// a thousand.
func measureShards(cfg Config, report *Report) error {
	budget := cfg.Budget
	if budget == nil {
		slots := cfg.Shards
		if max := runtime.GOMAXPROCS(0); slots > max {
			slots = max
		}
		budget = NewBudget(slots)
	}
	shards := cfg.shardConfigs()
	outs := make([]shardOutcome, len(shards))
	workers := budget.Slots()
	if workers > len(shards) {
		workers = len(shards)
	}
	var (
		cursor atomic.Int64
		wg     sync.WaitGroup
	)
	cursor.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= len(shards) {
					return
				}
				budget.acquire()
				outs[i] = runShard(shards[i])
				budget.release()
			}
		}()
	}
	wg.Wait()
	for _, out := range outs {
		if out.err != nil {
			return out.err
		}
		report.Live.Missions += out.live.Missions
		report.Live.Released += out.live.Released
		report.Live.Delivered += out.live.Delivered
		report.Live.Succeeded += out.live.Succeeded
		report.Counters.Add(out.Counters)
	}
	return nil
}
