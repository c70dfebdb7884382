package scenario

import (
	"cmp"
	"runtime"
	"sync"

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
	// Template holds what every point of the sweep shares — Missions,
	// Emerging, Stagger, Shards, ShareModel (part of the reference
	// cache key, so pinned and unpinned sweeps never share entries) and
	// MCTrials, which here defaults to Missions so the Wilson agreement check
	// reflects the live sampling noise. Config.At overwrites the fields an
	// experiment point owns; Budget is the sweep-wide one.
	Template Config

	// budget caps the shard event loops running at once across the whole sweep
	// at GOMAXPROCS: the runner's point-level workers and the shards inside
	// each point share it, so Parallel x Shards never oversubscribes the cores.
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
// scenario config validation — its network half included — without booting
// a network.
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

// config is the point's scenario config: the template, its estimator-level
// defaults, and the point overlaid.
func (e *Estimator) config(pt experiment.Point) (Config, error) {
	tmpl := e.Template
	tmpl.MCTrials = cmp.Or(tmpl.MCTrials, tmpl.Missions, 100) // 100: the scenario default mission count
	e.budgetOnce.Do(func() { e.budget = NewBudget(runtime.GOMAXPROCS(0)) })
	tmpl.Budget = e.budget
	return tmpl.At(pt)
}

// At overlays an experiment point on the template c — the one place a Point
// field meets its Config field, shared by the live estimator and `emergesim
// scenario`. What no point carries (Missions, Emerging, Shards, ...) keeps
// the template's value.
func (c Config) At(pt experiment.Point) (Config, error) {
	var err error
	if c.Plan, err = pt.Plan(); err != nil {
		return Config{}, err
	}
	c.Nodes, c.MaliciousRate, c.Alpha = pt.Network, pt.P, pt.Alpha
	c.Replicas, c.Partition = pt.Replicas, pt.Partition
	c.Strategy, c.Forge, c.Table = pt.Strategy, pt.Forge, pt.Table
	c.Fault, c.FaultSeverity, c.Retry = pt.Fault, pt.FaultSev, pt.Retry
	c.Seed = pt.Seed
	return c, nil
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
	if err := report.estimateReferences(e.reference); err != nil {
		return experiment.Result{}, err
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
		Counters:     report.Counters,
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
