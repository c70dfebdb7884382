// Command emergesim regenerates the paper's evaluation (Section IV) through
// the unified experiment engine: declarative parameter sweeps executed by
// any of the three estimators — closed-form analytic, Monte Carlo, or the
// live protocol stack (simnet + Kademlia + protocol hosts under churn and
// adversaries, cross-checked against the matched Monte Carlo references).
//
// Usage:
//
//	emergesim sweep -estimator live|mc|analytic -axis name=values ... [flags]
//	emergesim scenario [flags]
//	emergesim [flags] fig6a|fig6b|fig6c|fig6d|fig7|fig8|all
//
// An axis is "name=v1,v2,..." or "name=start:stop:step" over p, alpha,
// network (alias: nodes), budget, k, l, sharen, replicas, forge, partition,
// faultsev, retry, scheme, drop, strategy, table or fault; the first axis is
// the X axis, the rest form the series. The figure names remain as aliases
// for the canned full-resolution specs.
//
// The eclipse attack curves (release failure vs forgery rate, naive vs
// ping-evict tables) come from, e.g.:
//
//	emergesim sweep -estimator live -strategy eclipse -axis forge=0:60:15 \
//	    -axis table=naive,pingevict -nodes 150 -p 0.2 -missions 40 -format csv
//
// Examples:
//
//	emergesim -trials 1000 -step 0.02 all        # full-resolution, all figures
//	emergesim -csv fig8 > fig8.csv               # machine-readable series
//	emergesim sweep -estimator live -axis p=0:0.3:0.1 -axis scheme=central,joint \
//	    -nodes 500 -alpha 1 -k 3 -l 2 -missions 100 -format csv
//	emergesim scenario -nodes 1000 -p 0.1 -alpha 1 -drop -k 3 -l 2 -missions 200
//	emergesim scenario -nodes 10000 -missions 1000 -shards 8 -p 0.1 -alpha 1
//
// Live points accept two orthogonal scaling levers. -shards S replicates:
// the point's missions are partitioned over S independent network replicas
// executed concurrently across cores (each with its own zone map), merged
// deterministically — the lever for very large mission-count axes.
// -partition S splits instead: the point's one population runs across S
// parallel event loops with deterministic cross-shard routing — the lever
// for very large network-size axes, where one event loop is the bottleneck.
// Every live network runs on the same lockstep engine (-partition 0 is one
// loop), so -partition composes with everything else: -fault, -forge,
// -shards. Live csv/json output always carries the engine's
// epochs,idle_skips,merge_allocs columns.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/bench"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/mc"
	"selfemerge/internal/scenario"
)

func fatalf(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "emergesim: "+format+"\n", args...)
	os.Exit(code)
}

// planFlags declares the shared plan-shape flags and returns the spec
// builder both subcommands use.
func planFlags(fs *flag.FlagSet) func(p, alpha float64, budget int) (core.PlanSpec, error) {
	var (
		scheme = fs.String("scheme", "joint", "routing scheme: central|disjoint|joint|share")
		k      = fs.Int("k", 3, "replication factor (paths); 0 with -l 0 lets the planner size the shape")
		l      = fs.Int("l", 2, "path length (holder columns)")
		shareN = fs.Int("sharen", 0, "share carriers per column (share scheme)")
		shareM = fs.String("sharem", "", "comma-separated per-column thresholds (share scheme)")
	)
	return func(p, alpha float64, budget int) (core.PlanSpec, error) {
		s, err := core.ParseScheme(*scheme)
		if err != nil {
			return core.PlanSpec{}, err
		}
		var thresholds []int
		if *shareM != "" {
			for _, part := range strings.Split(*shareM, ",") {
				m, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return core.PlanSpec{}, fmt.Errorf("bad -sharem %q: %w", *shareM, err)
				}
				thresholds = append(thresholds, m)
			}
		}
		return core.PlanSpec{
			Scheme: s, P: p, Alpha: alpha, Budget: budget,
			K: *k, L: *l, ShareN: *shareN, ShareM: thresholds,
		}, nil
	}
}

// axisFlags collects repeatable -axis specs.
type axisFlags struct {
	axes []experiment.Axis
}

func (a *axisFlags) String() string { return fmt.Sprintf("%d axes", len(a.axes)) }

func (a *axisFlags) Set(spec string) error {
	ax, err := experiment.ParseAxis(spec)
	if err != nil {
		return err
	}
	a.axes = append(a.axes, ax)
	return nil
}

// runSweep is the `emergesim sweep` subcommand: one declarative sweep on the
// unified experiment runner.
func runSweep(args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var axes axisFlags
	fs.Var(&axes, "axis", "swept axis, name=v1,v2,... or name=start:stop:step (repeatable; first = numeric X axis)")
	var (
		estimator = fs.String("estimator", "mc", "point estimator: analytic|mc|live")
		nodes     = fs.Int("nodes", 1000, "DHT population N (base)")
		budget    = fs.Int("budget", 0, "planner node budget (0 = nodes)")
		p         = fs.Float64("p", 0.1, "malicious (Sybil) fraction (base)")
		alpha     = fs.Float64("alpha", 0, "churn severity T/lifetime (base; 0 disables churn)")
		drop      = fs.Bool("drop", false, "drop attack instead of spying (base)")
		strategy  = fs.String("strategy", "spy", "adversary strategy: spy|drop|eclipse (base; live estimator)")
		forge     = fs.Float64("forge", 0, "eclipse forgery rate, forged contacts per attacker per minute; the forger acts once per simulated second with every event loop paused (live estimator)")
		table     = fs.String("table", "", "DHT routing-table policy: naive|pingevict (base; live estimator)")
		faultProf = fs.String("fault", "", "fault-injection profile: none|burst|partition|flap, judged per event loop at send time (base; live estimator)")
		faultSev  = fs.Float64("faultsev", 0, "fault severity in [0,1] (base; live estimator)")
		retry     = fs.Int("retry", 0, "total send attempts per DHT RPC, >1 enables retry/backoff hardening (base; live estimator)")
		replicas  = fs.Int("replicas", 1, "packet replica count (live; 1 = model-faithful)")
		trials    = fs.Int("trials", 1000, "Monte Carlo trials per point (mc estimator)")
		missions  = fs.Int("missions", 100, "live emergence trials per point (live estimator)")
		shards    = fs.Int("shards", 1, "independent network replicas per live point, run in parallel (live estimator)")
		partition = fs.Int("partition", 0, "split each live point's one population across this many parallel event loops (0 = one loop; live estimator)")
		partWork  = fs.Int("partition-workers", 0, "concurrent partition shard loops per point (0 = GOMAXPROCS; live estimator)")
		emerging  = fs.Duration("emerging", 2*time.Hour, "emerging period T (live estimator)")
		mcTrials  = fs.Int("mc-trials", 0, "live reference trials (0 = missions)")
		shareMod  = fs.String("share-model", "default", "key-share loss model: default|quota|live (mc points, live references)")
		workers   = fs.Int("workers", 0, "concurrent sweep points (0 = GOMAXPROCS)")
		loopStats = fs.Bool("loopstats", false, "print per-point event-loop stats (epochs, idle skips, merge allocs) to stderr (live estimator)")
		format    = fs.String("format", "table", "output format: table|csv|json")
		seed      = fs.Uint64("seed", 2017, "base RNG seed")
		name      = fs.String("name", "sweep", "sweep name for the report header")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprof   = fs.String("memprofile", "", "write a post-sweep heap profile to this file (go tool pprof)")
	)
	spec := planFlags(fs)
	_ = fs.Parse(args)
	if len(axes.axes) == 0 {
		fatalf(2, "sweep needs at least one -axis (e.g. -axis p=0:0.5:0.05)")
	}

	// Reject explicitly-set flags the chosen estimator ignores: a silently
	// dropped -trials or -missions would mislabel what was measured.
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	irrelevant := map[string][]string{
		"analytic": {"trials", "missions", "shards", "partition", "partition-workers", "loopstats", "emerging", "mc-trials", "share-model", "strategy", "forge", "table", "fault", "faultsev", "retry"},
		"mc":       {"missions", "shards", "partition", "partition-workers", "loopstats", "emerging", "mc-trials", "strategy", "forge", "table", "fault", "faultsev", "retry"},
		"live":     {"trials"},
	}
	for _, name := range irrelevant[*estimator] {
		if setFlags[name] {
			fatalf(2, "-%s does not apply to the %s estimator", name, *estimator)
		}
	}

	base, err := spec(*p, *alpha, *budget)
	if err != nil {
		fatalf(2, "%v", err)
	}
	strat, err := adversary.ParseStrategy(*strategy)
	if err != nil {
		fatalf(2, "%v", err)
	}
	var policy dht.TablePolicy
	if *table != "" {
		if policy, err = dht.ParseTablePolicy(*table); err != nil {
			fatalf(2, "%v", err)
		}
	}
	profile, err := fault.ParseProfile(*faultProf)
	if err != nil {
		fatalf(2, "%v", err)
	}
	sw := experiment.Sweep{
		Name: *name,
		Seed: *seed,
		Base: experiment.Point{
			Scheme: base.Scheme, P: base.P, Alpha: base.Alpha,
			Network: *nodes, Budget: *budget,
			K: base.K, L: base.L, ShareN: base.ShareN, ShareM: base.ShareM,
			Replicas: *replicas, Drop: *drop,
			Strategy: strat, Forge: *forge, Table: policy,
			Fault: profile, FaultSev: *faultSev, Retry: *retry,
		},
		Axes: axes.axes,
	}

	model, err := mc.ParseShareModel(*shareMod)
	if err != nil {
		fatalf(2, "%v", err)
	}
	var est experiment.Estimator
	switch *estimator {
	case "analytic":
		est = experiment.Analytic{}
	case "mc":
		// One trial worker per point: the runner parallelizes across points,
		// and pinning the per-point partition makes the emitted sweep
		// byte-identical across machines, not just across -workers values.
		est = experiment.MonteCarlo{Trials: *trials, Workers: 1, ShareModel: model}
	case "live":
		est = &scenario.Estimator{Missions: *missions, Shards: *shards, Partition: *partition, PartitionWorkers: *partWork, Emerging: *emerging, MCTrials: *mcTrials, ShareModel: model}
	default:
		fatalf(2, "unknown estimator %q (want analytic|mc|live)", *estimator)
	}

	runner := experiment.Runner{Estimator: est, Parallel: *workers}
	// Pre-flight the whole grid (plan shapes, estimator compatibility) and
	// the output format so parameter mistakes exit as usage errors (2)
	// before any compute runs.
	if err := runner.Validate(sw); err != nil {
		fatalf(2, "%v", err)
	}
	emit, ok := map[string]func(*experiment.ResultSet) error{
		"table": func(rs *experiment.ResultSet) error { return rs.WriteTable(os.Stdout) },
		"csv":   func(rs *experiment.ResultSet) error { return rs.WriteCSV(os.Stdout) },
		"json":  func(rs *experiment.ResultSet) error { return rs.WriteJSON(os.Stdout) },
	}[*format]
	if !ok {
		fatalf(2, "unknown format %q (want table|csv|json)", *format)
	}
	// Profiling brackets exactly the sweep execution, so the profile shows
	// the estimator hot path, not flag parsing or emission.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fatalf(1, "cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf(1, "cpuprofile: %v", err)
		}
		defer f.Close()
	}
	rs, err := runner.Run(sw)
	if *cpuprof != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatalf(1, "%v", err)
	}
	if err := emit(rs); err != nil {
		fatalf(1, "%v", err)
	}
	// Loop stats go to stderr so the emitted sweep stays byte-deterministic
	// on stdout regardless of the flag.
	if *loopStats {
		for _, res := range rs.Results {
			fmt.Fprintf(os.Stderr, "emergesim: loopstats point=%d series=%s x=%g partition=%d epochs=%d idle_skips=%d merge_allocs=%d\n",
				res.Point.Index, res.Point.Series, res.Point.X, res.Point.Partition,
				res.Epochs, res.IdleSkips, res.MergeAllocs)
		}
	}
	// The heap profile is written after the results are out: a sweep's
	// output must never be lost to a profiling side-channel failure.
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fatalf(1, "memprofile: %v", err)
		}
		runtime.GC() // settle the heap so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf(1, "memprofile: %v", err)
		}
		f.Close()
	}
	fmt.Fprintf(os.Stderr, "emergesim: %d points in %s (%s of summed point time)\n",
		len(rs.Results), rs.Elapsed.Round(time.Millisecond), rs.PointElapsed.Round(time.Millisecond))
}

// runScenario is the `emergesim scenario` subcommand: one live-network
// experiment point next to its Monte Carlo and analytic references.
func runScenario(args []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	var (
		nodes     = fs.Int("nodes", 200, "DHT population N")
		p         = fs.Float64("p", 0.1, "malicious (Sybil) fraction")
		alpha     = fs.Float64("alpha", 1, "churn severity T/lifetime (0 disables churn)")
		drop      = fs.Bool("drop", false, "drop attack instead of spying")
		strategy  = fs.String("strategy", "spy", "adversary strategy: spy|drop|eclipse")
		forge     = fs.Float64("forge", 0, "eclipse forgery rate, forged contacts per attacker per minute; the forger acts once per simulated second with every event loop paused")
		table     = fs.String("table", "", "DHT routing-table policy: naive|pingevict")
		missions  = fs.Int("missions", 100, "live emergence trials")
		shards    = fs.Int("shards", 1, "independent network replicas run in parallel (each gets its own zone map)")
		partition = fs.Int("partition", 0, "split the one population across this many parallel event loops (0 = one loop)")
		partWork  = fs.Int("partition-workers", 0, "concurrent partition shard loops (0 = GOMAXPROCS)")
		faultProf = fs.String("fault", "", "fault-injection profile: none|burst|partition|flap, judged per event loop at send time")
		faultSev  = fs.Float64("faultsev", 0, "fault severity in [0,1]")
		retry     = fs.Int("retry", 0, "total send attempts per DHT RPC (>1 enables retry/backoff hardening)")
		emerging  = fs.Duration("emerging", 2*time.Hour, "emerging period T")
		replicas  = fs.Int("replicas", 1, "packet replica count (1 = model-faithful)")
		mcTrials  = fs.Int("mc-trials", 2000, "Monte Carlo reference trials")
		loopStats = fs.Bool("loopstats", false, "print event-loop stats (epochs, idle skips, merge allocs) to stderr")
		seed      = fs.Uint64("seed", 2017, "RNG seed")
	)
	spec := planFlags(fs)
	_ = fs.Parse(args)

	planSpec, err := spec(*p, *alpha, *nodes)
	if err != nil {
		fatalf(2, "%v", err)
	}
	plan, err := planSpec.Plan()
	if err != nil {
		fatalf(2, "%v", err)
	}
	strat, err := adversary.ParseStrategy(*strategy)
	if err != nil {
		fatalf(2, "%v", err)
	}
	var policy dht.TablePolicy
	if *table != "" {
		if policy, err = dht.ParseTablePolicy(*table); err != nil {
			fatalf(2, "%v", err)
		}
	}
	profile, err := fault.ParseProfile(*faultProf)
	if err != nil {
		fatalf(2, "%v", err)
	}
	report, err := scenario.Run(scenario.Config{
		Nodes:            *nodes,
		MaliciousRate:    *p,
		Drop:             *drop,
		Strategy:         strat,
		Forge:            *forge,
		Table:            policy,
		Alpha:            *alpha,
		Emerging:         *emerging,
		Missions:         *missions,
		Shards:           *shards,
		Partition:        *partition,
		PartitionWorkers: *partWork,
		Fault:            profile,
		FaultSeverity:    *faultSev,
		Retry:            *retry,
		Plan:             plan,
		Replicas:         *replicas,
		MCTrials:         *mcTrials,
		Seed:             *seed,
	})
	if err != nil {
		fatalf(1, "%v", err)
	}
	if err := report.WriteTable(os.Stdout); err != nil {
		fatalf(1, "%v", err)
	}
	if *loopStats {
		fmt.Fprintf(os.Stderr, "emergesim: loopstats partition=%d epochs=%d idle_skips=%d merge_allocs=%d\n",
			*partition, report.Epochs, report.IdleSkips, report.MergeAllocs)
	}
}

// runFigures handles the canned figure aliases (fig6a..fig8, all): the
// paper's full-resolution sweep specs on the shared runner.
func runFigures(args []string) {
	fs := flag.NewFlagSet("emergesim", flag.ExitOnError)
	var (
		trials    = fs.Int("trials", 1000, "Monte Carlo trials per data point (paper: 1000)")
		step      = fs.Float64("step", 0.02, "malicious-rate grid step")
		seed      = fs.Uint64("seed", 2017, "base RNG seed")
		alpha     = fs.Float64("alpha", 3, "churn severity T/tlife for fig7")
		csv       = fs.Bool("csv", false, "emit CSV instead of a table")
		predicted = fs.Bool("predicted", false, "include closed-form curves next to measured ones (fig6)")
	)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emergesim [flags] fig6a|fig6b|fig6c|fig6d|fig7|fig8|all")
		fmt.Fprintln(os.Stderr, "       emergesim sweep -estimator analytic|mc|live -axis name=values ...")
		fmt.Fprintln(os.Stderr, "       emergesim scenario [flags]")
		fs.PrintDefaults()
		os.Exit(2)
	}

	opts := bench.Options{
		Trials:           *trials,
		PStep:            *step,
		Seed:             *seed,
		IncludePredicted: *predicted,
	}
	emit := func(fig bench.Figure, err error) {
		if err != nil {
			fatalf(1, "%v", err)
		}
		if *csv {
			if err := fig.WriteCSV(os.Stdout); err != nil {
				fatalf(1, "%v", err)
			}
			return
		}
		if err := fig.WriteTable(os.Stdout); err != nil {
			fatalf(1, "%v", err)
		}
		fmt.Println()
	}
	fig6 := func(network int, wantRes bool) {
		res, cost, err := bench.Figure6(network, opts)
		if wantRes {
			emit(res, err)
		} else {
			emit(cost, err)
		}
	}

	switch fs.Arg(0) {
	case "fig6a":
		fig6(10000, true)
	case "fig6b":
		fig6(10000, false)
	case "fig6c":
		fig6(100, true)
	case "fig6d":
		fig6(100, false)
	case "fig7":
		emit(bench.Figure7(*alpha, opts))
	case "fig8":
		emit(bench.Figure8(opts))
	case "all":
		res, cost, err := bench.Figure6(10000, opts)
		emit(res, err)
		emit(cost, err)
		res, cost, err = bench.Figure6(100, opts)
		emit(res, err)
		emit(cost, err)
		for _, a := range []float64{1, 2, 3, 5} {
			emit(bench.Figure7(a, opts))
		}
		emit(bench.Figure8(opts))
	default:
		fatalf(2, "unknown figure %q", fs.Arg(0))
	}
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "sweep":
			runSweep(os.Args[2:])
			return
		case "scenario":
			runScenario(os.Args[2:])
			return
		}
	}
	runFigures(os.Args[1:])
}
