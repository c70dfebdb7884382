package scenario

import (
	"runtime"
	"sync"
	"time"

	"selfemerge/internal/experiment"
	"selfemerge/internal/mc"
)

// Estimator measures experiment points by running live missions through the
// full protocol stack: the "live" leg of the unified experiment engine. Each
// point boots a private network (its own discrete-event simulator and simnet
// fabric), so the runner executes a whole live curve with one point per
// core. Matched Monte Carlo references are computed once per distinct
// environment and cached — points that share an environment (and, via the
// sweep's common-random-numbers seeding, a seed) share the reference.
//
// The zero value works; it uses the scenario defaults (100 missions, 2h
// emerging period, Missions-matched reference trials). Safe for concurrent
// use by the runner's workers.
type Estimator struct {
	// Missions is the number of live emergence trials per point (default
	// 100).
	Missions int
	// Emerging is the period T between dispatch and release (default 2h).
	Emerging time.Duration
	// Stagger spreads mission launches (default: one emerging period).
	Stagger time.Duration
	// Latency is the one-way simnet latency (default 5ms).
	Latency time.Duration
	// MCTrials sizes the Monte Carlo references (default: Missions, so the
	// Wilson agreement check reflects the live sampling noise).
	MCTrials int
	// ShareModel pins the key-share model of the matched references for
	// every point of the sweep (default: Config.ShareModel's resolution,
	// mc.ShareModelLive for key-share plans). Part of the reference cache
	// key, so pinned and unpinned sweeps never share entries.
	ShareModel mc.ShareModel
	// Shards partitions every point's missions across this many independent
	// network replicas, executed concurrently under the sweep-wide budget
	// (default 1). Part of each point's descriptor and reference cache key.
	Shards int
	// Partition runs every point's one population across this many parallel
	// event loops (0 = one). A point's network occupies one budget slot
	// and spreads its shard loops over PartitionWorkers goroutines. Part of
	// each point's descriptor and reference cache key; per-point overrides
	// come from the sweep's partition axis.
	Partition int
	// PartitionWorkers caps concurrent partition shard loops per point (0 =
	// GOMAXPROCS). Execution throttle only.
	PartitionWorkers int
	// Concurrency caps how many shard event loops run at once across the
	// whole sweep (default GOMAXPROCS) — the shared budget between the
	// runner's point-level workers and the shards inside each point, so
	// Parallel x Shards goroutines never oversubscribe the cores. Execution
	// detail only: results are byte-identical for any value.
	Concurrency int

	budgetOnce sync.Once
	budget     *Budget

	// mu: the runner's point workers call Estimate concurrently and share
	// one reference cache.
	mu   sync.Mutex
	refs map[string]*refEntry
}

// refEntry is a singleflight cache slot: the first point needing the
// reference computes it, concurrent points wait on the once.
type refEntry struct {
	once sync.Once
	res  mc.Result
	err  error
}

// Name implements experiment.Estimator.
func (e *Estimator) Name() string { return "live" }

// CheckPoint implements experiment.PointChecker: plan construction plus the
// scenario config validation, without booting a network.
func (e *Estimator) CheckPoint(pt experiment.Point) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	cfg, err := e.config(pt)
	if err != nil {
		return err
	}
	_, err = cfg.withDefaults()
	return err
}

// config translates an experiment point into a scenario config.
func (e *Estimator) config(pt experiment.Point) (Config, error) {
	plan, err := pt.Plan()
	if err != nil {
		return Config{}, err
	}
	mcTrials := e.MCTrials
	if mcTrials == 0 {
		mcTrials = e.Missions
		if mcTrials == 0 {
			mcTrials = 100 // the scenario default mission count
		}
	}
	partition := e.Partition
	if pt.Partition > 0 {
		partition = pt.Partition // the sweep's partition axis overrides
	}
	return Config{
		Nodes:            pt.Network,
		MaliciousRate:    pt.P,
		Drop:             pt.Drop,
		Strategy:         pt.Strategy,
		Forge:            pt.Forge,
		Table:            pt.Table,
		Alpha:            pt.Alpha,
		Emerging:         e.Emerging,
		Missions:         e.Missions,
		Stagger:          e.Stagger,
		Plan:             plan,
		Replicas:         pt.Replicas,
		Latency:          e.Latency,
		MCTrials:         mcTrials,
		ShareModel:       e.ShareModel,
		Shards:           e.Shards,
		Budget:           e.sharedBudget(),
		Partition:        partition,
		PartitionWorkers: e.PartitionWorkers,
		Fault:            pt.Fault,
		FaultSeverity:    pt.FaultSev,
		Retry:            pt.Retry,
		Seed:             pt.Seed,
	}, nil
}

// sharedBudget lazily builds the sweep-wide shard concurrency budget.
func (e *Estimator) sharedBudget() *Budget {
	e.budgetOnce.Do(func() {
		slots := e.Concurrency
		if slots <= 0 {
			slots = runtime.GOMAXPROCS(0)
		}
		e.budget = NewBudget(slots)
	})
	return e.budget
}

// Estimate implements experiment.Estimator: the live measurement of Measure
// plus cached matched references and the AgreesWithMC cross-check.
func (e *Estimator) Estimate(pt experiment.Point) (experiment.Result, error) {
	if err := pt.Validate(); err != nil {
		return experiment.Result{}, err
	}
	cfg, err := e.config(pt)
	if err != nil {
		return experiment.Result{}, err
	}
	report, err := Measure(cfg)
	if err != nil {
		return experiment.Result{}, err
	}
	relRef, delRef := report.Config.References()
	if report.MC, err = e.reference(relRef); err != nil {
		return experiment.Result{}, err
	}
	report.MCDelivery = report.MC
	if !report.Config.Drop {
		if report.MCDelivery, err = e.reference(delRef); err != nil {
			return experiment.Result{}, err
		}
	}
	agreeRel, agreeDel := report.AgreesWithMC()

	live := report.Live
	return experiment.Result{
		Point:        pt,
		Plan:         report.Config.Plan,
		Samples:      live.Missions,
		Released:     live.Released,
		Delivered:    live.Delivered,
		Succeeded:    live.Succeeded,
		Rr:           live.Rr(),
		Rd:           live.Rd(),
		R:            live.R(),
		Cost:         report.Config.Plan.NodesRequired(),
		Predicted:    report.Predicted,
		HasReference: true,
		RefRelease:   report.MC,
		RefDeliver:   report.MCDelivery,
		AgreeRelease: agreeRel,
		AgreeDeliver: agreeDel,
		Deaths:       report.Deaths,
		Joins:        report.Joins,
		Retries:      report.Retries,
		Recovered:    report.Recovered,
		Duplicates:   report.Duplicates,
		Epochs:       report.Epochs,
		IdleSkips:    report.IdleSkips,
		MergeAllocs:  report.MergeAllocs,
		Elapsed:      report.Elapsed,
	}, nil
}

// reference returns the cached estimate for ref, computing it exactly once
// per distinct key across all concurrent points.
func (e *Estimator) reference(ref Reference) (mc.Result, error) {
	key := ref.Key()
	e.mu.Lock()
	if e.refs == nil {
		e.refs = make(map[string]*refEntry)
	}
	entry, ok := e.refs[key]
	if !ok {
		entry = &refEntry{}
		e.refs[key] = entry
	}
	e.mu.Unlock()
	entry.once.Do(func() { entry.res, entry.err = ref.Estimate() })
	return entry.res, entry.err
}
