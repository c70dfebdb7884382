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
// An axis is "name=v1,v2,..." or "name=start:stop:step"; `emergesim sweep -h`
// lists the axis vocabulary, generated from the parameter table
// (experiment.Params), and every axis is also a base-point flag of both
// subcommands. The first axis is the X axis, the rest form the series. The
// figure names remain as aliases for the canned full-resolution specs.
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
//	emergesim scenario -nodes 1000 -p 0.1 -alpha 1 -strategy drop -k 3 -l 2 -missions 200
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
// -shards. Every estimator's csv/json output has the same columns, ending in
// the engine's epochs,idle_skips,merge_allocs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"selfemerge/internal/bench"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/mc"
	"selfemerge/internal/scenario"
)

// fail reports an error and returns the exit status: 2 for a parameter
// mistake caught before any compute, 1 for a failed run.
func fail(stderr io.Writer, status int, format string, args ...any) int {
	fmt.Fprintf(stderr, "emergesim: "+format+"\n", args...)
	return status
}

// parse runs fs over args. On failure the flag package has printed its
// message and usage on stderr, and status is what flag.ExitOnError exits
// with: 0 for -h, else 2.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (status int, ok bool) {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0, false
	} else if err != nil {
		return 2, false
	}
	return 0, true
}

// liveFlags binds the flags only the live estimator reads and no experiment
// point carries — the scenario.Config template, with cfg's values as
// defaults, and -loopstats — and returns their names.
func liveFlags(fs *flag.FlagSet, cfg *scenario.Config) (loopStats *bool, names []string) {
	fs.IntVar(&cfg.Missions, "missions", cfg.Missions, "live emergence trials per point")
	fs.IntVar(&cfg.Shards, "shards", cfg.Shards, "independent network replicas per live point, run in parallel (each gets its own zone map)")
	fs.DurationVar(&cfg.Emerging, "emerging", cfg.Emerging, "emerging period T")
	fs.IntVar(&cfg.MCTrials, "mc-trials", cfg.MCTrials, "Monte Carlo reference trials (sweep: 0 = missions)")
	loopStats = fs.Bool("loopstats", false, "print event-loop stats (epochs, idle skips, merge allocs) per point to stderr")
	return loopStats, []string{"missions", "shards", "emerging", "mc-trials", "loopstats"}
}

// runSweep is the `emergesim sweep` subcommand: one declarative sweep on the
// unified experiment runner.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	sw := experiment.Sweep{Base: experiment.Point{Scheme: core.SchemeJoint, P: 0.1, Network: 1000, K: 3, L: 2, Replicas: 1}}
	fs.Func("axis", "swept axis, name=v1,v2,... or name=start:stop:step (repeatable; first = numeric X axis) over "+
		experiment.AxisNames()+"; each is also a base-value flag below", func(spec string) error {
		ax, err := experiment.ParseAxis(spec)
		sw.Axes = append(sw.Axes, ax)
		return err
	})
	experiment.BindFlags(fs, &sw.Base)
	live := scenario.Config{Missions: 100, Shards: 1, Emerging: 2 * time.Hour}
	loopStats, liveOnly := liveFlags(fs, &live)
	var (
		estimator = fs.String("estimator", "mc", "point estimator: analytic|mc|live")
		trials    = fs.Int("trials", 1000, "Monte Carlo trials per point (mc estimator)")
		workers   = fs.Int("workers", 0, "concurrent sweep points (0 = GOMAXPROCS)")
		format    = fs.String("format", "table", "output format: table|csv|json")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file (go tool pprof)")
		memprof   = fs.String("memprofile", "", "write a post-sweep heap profile to this file (go tool pprof)")
	)
	fs.Func("share-model", "key-share loss model: default|quota|live (mc points, live references)", func(s string) (err error) {
		live.ShareModel, err = mc.ParseShareModel(s)
		return err
	})
	fs.Uint64Var(&sw.Seed, "seed", 2017, "base RNG seed")
	fs.StringVar(&sw.Name, "name", "sweep", "sweep name for the report header")
	if status, ok := parse(fs, args, stderr); !ok {
		return status
	}
	if len(sw.Axes) == 0 {
		return fail(stderr, 2, "sweep needs at least one -axis (e.g. -axis p=0:0.5:0.05)")
	}

	// The abstract estimators read neither the live template nor a live-only
	// table row.
	for _, pa := range experiment.Params {
		if pa.LiveOnly {
			liveOnly = append(liveOnly, pa.Flag())
		}
	}
	var est experiment.Estimator
	var ignored []string // flags the chosen estimator does not read
	switch *estimator {
	case "analytic":
		est, ignored = experiment.Analytic{}, append(liveOnly, "trials", "share-model")
	case "mc":
		est, ignored = experiment.MonteCarlo{Trials: *trials, ShareModel: live.ShareModel}, liveOnly
	case "live":
		est, ignored = &scenario.Estimator{Template: live}, []string{"trials"}
	default:
		return fail(stderr, 2, "unknown estimator %q (want analytic|mc|live)", *estimator)
	}
	// Reject explicitly-set flags the chosen estimator ignores: a silently
	// dropped -trials or -missions would mislabel what was measured.
	status := 0
	fs.Visit(func(f *flag.Flag) {
		if status == 0 && slices.Contains(ignored, f.Name) {
			status = fail(stderr, 2, "-%s does not apply to the %s estimator", f.Name, *estimator)
		}
	})
	if status != 0 {
		return status
	}

	runner := experiment.Runner{Estimator: est, Parallel: *workers}
	// Pre-flight the whole grid (plan shapes, estimator compatibility) and
	// the output format so parameter mistakes exit as usage errors (2)
	// before any compute runs.
	if err := runner.Validate(sw); err != nil {
		return fail(stderr, 2, "%v", err)
	}
	emit, ok := map[string]func(*experiment.ResultSet, io.Writer) error{
		"table": (*experiment.ResultSet).WriteTable,
		"csv":   (*experiment.ResultSet).WriteCSV,
		"json":  (*experiment.ResultSet).WriteJSON,
	}[*format]
	if !ok {
		return fail(stderr, 2, "unknown format %q (want table|csv|json)", *format)
	}
	// Profiling brackets exactly the sweep execution, so the profile shows
	// the estimator hot path, not flag parsing or emission.
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fail(stderr, 1, "cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, 1, "cpuprofile: %v", err)
		}
	}
	rs, err := runner.Run(sw)
	if *cpuprof != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return fail(stderr, 1, "%v", err)
	}
	if err := emit(rs, stdout); err != nil {
		return fail(stderr, 1, "%v", err)
	}
	// Loop stats go to stderr so the emitted sweep stays byte-deterministic
	// on stdout regardless of the flag.
	if *loopStats {
		for _, res := range rs.Results {
			fmt.Fprintf(stderr, "emergesim: loopstats point=%d series=%s x=%g partition=%d epochs=%d idle_skips=%d merge_allocs=%d\n",
				res.Point.Index, res.Point.Series, res.Point.X, res.Point.Partition,
				res.Epochs, res.IdleSkips, res.MergeAllocs)
		}
	}
	// The heap profile is written after the results are out: a sweep's
	// output must never be lost to a profiling side-channel failure.
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			return fail(stderr, 1, "memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fail(stderr, 1, "memprofile: %v", err)
		}
	}
	fmt.Fprintf(stderr, "emergesim: %d points in %s (%s of summed point time)\n",
		len(rs.Results), rs.Elapsed.Round(time.Millisecond), rs.PointElapsed.Round(time.Millisecond))
	return 0
}

// runScenario is the `emergesim scenario` subcommand: one live-network
// experiment point next to its Monte Carlo and analytic references.
func runScenario(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scenario", flag.ContinueOnError)
	base := experiment.Point{Scheme: core.SchemeJoint, P: 0.1, Alpha: 1, Network: 200, K: 3, L: 2, Replicas: 1}
	experiment.BindFlags(fs, &base)
	live := scenario.Config{Missions: 100, Shards: 1, Emerging: 2 * time.Hour, MCTrials: 2000}
	loopStats, _ := liveFlags(fs, &live)
	fs.Uint64Var(&base.Seed, "seed", 2017, "RNG seed")
	if status, ok := parse(fs, args, stderr); !ok {
		return status
	}
	cfg, err := live.At(base)
	if err != nil {
		return fail(stderr, 2, "%v", err)
	}
	report, err := scenario.Run(cfg)
	if err != nil {
		return fail(stderr, 1, "%v", err)
	}
	if err := report.WriteTable(stdout); err != nil {
		return fail(stderr, 1, "%v", err)
	}
	if *loopStats {
		fmt.Fprintf(stderr, "emergesim: loopstats partition=%d epochs=%d idle_skips=%d merge_allocs=%d\n",
			base.Partition, report.Epochs, report.IdleSkips, report.MergeAllocs)
	}
	return 0
}

// runFigures handles the canned figure aliases (fig6a..fig8, all): the
// paper's full-resolution sweep specs on the shared runner.
func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emergesim", flag.ContinueOnError)
	var (
		trials    = fs.Int("trials", 1000, "Monte Carlo trials per data point (paper: 1000)")
		step      = fs.Float64("step", 0.02, "malicious-rate grid step")
		seed      = fs.Uint64("seed", 2017, "base RNG seed")
		alpha     = fs.Float64("alpha", 3, "churn severity T/tlife for fig7")
		csv       = fs.Bool("csv", false, "emit CSV instead of a table")
		predicted = fs.Bool("predicted", false, "include closed-form curves next to measured ones (fig6)")
	)
	if status, ok := parse(fs, args, stderr); !ok {
		return status
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: emergesim [flags] fig6a|fig6b|fig6c|fig6d|fig7|fig8|all")
		fmt.Fprintln(stderr, "       emergesim sweep -estimator analytic|mc|live -axis name=values ...")
		fmt.Fprintln(stderr, "       emergesim scenario [flags]")
		fs.PrintDefaults()
		return 2
	}

	opts := bench.Options{
		Trials:           *trials,
		PStep:            *step,
		Seed:             *seed,
		IncludePredicted: *predicted,
	}
	// emit writes one figure; after the first failure it writes nothing more.
	status := 0
	emit := func(fig bench.Figure, err error) {
		if status != 0 {
			return
		}
		if err == nil && *csv {
			err = fig.WriteCSV(stdout)
		} else if err == nil {
			if err = fig.WriteTable(stdout); err == nil {
				fmt.Fprintln(stdout)
			}
		}
		if err != nil {
			status = fail(stderr, 1, "%v", err)
		}
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
		return fail(stderr, 2, "unknown figure %q", fs.Arg(0))
	}
	return status
}

// run dispatches one command line and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "sweep" {
		return runSweep(args[1:], stdout, stderr)
	} else if len(args) > 0 && args[0] == "scenario" {
		return runScenario(args[1:], stdout, stderr)
	}
	return runFigures(args, stdout, stderr)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
