// Command benchmark is the repository's performance ledger: six mission
// workloads driven through the live stack's public functions, 14 end-to-end
// metrics per workload, and a per-layer ladder (rigs, counters, spans, CPU
// profile shares) from a separate traced run. See README.md.
//
// One workload, as the benchmark contract runs it:
//
//	bash benchmark/run.sh --workload steady-120 --seed 7 --seconds 20 --trace 0
//
// The whole ledger, and a comparison of two:
//
//	bash benchmark/run.sh -seed 2017 -out a.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run one workload and print its result object as the last line (default: the whole ledger)")
		seed     = flag.Uint64("seed", 2017, "run seed: every generated input derives from it")
		seconds  = flag.Int("seconds", 20, "timed-run budget per workload: two whole passes, then rep by rep until the time is up")
		trace    = flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		out      = flag.String("out", "", "write the ledger as JSON to this file")
		spansOut = flag.String("spans", "", "write the traced runs' spans as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two ledger files given as arguments: base new")
		list     = flag.Bool("list", false, "print every metric name, unit, direction, bound and source")
	)
	flag.Parse()
	var err error
	switch {
	case *list:
		printList()
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two ledger files: base new")
			break
		}
		var regressed bool
		if regressed, err = compareLedgers(flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case *name != "":
		err = runOne(*name, *seed, time.Duration(*seconds)*time.Second, *trace != 0, *spansOut)
	default:
		err = runLedger(*seed, time.Duration(*seconds)*time.Second, *out, *spansOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload the way the benchmark contract asks and prints
// the result object as the last line of standard output.
func runOne(name string, seed uint64, budget time.Duration, traced bool, spansOut string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (see -list)", name)
	}
	var (
		res     *result
		spans   []span
		metrics []metricDef
		err     error
	)
	if traced {
		res, spans, err = runTraced(w, seed)
		metrics = tracedMetrics()
	} else {
		res, err = runTimed(w, seed, budget)
		metrics = timedMetrics()
	}
	if err != nil {
		return err
	}
	printResult(res, metrics)
	if err := writeJSON(spansOut, spans); err != nil {
		return err
	}
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]reading{}}
	for _, m := range metrics {
		line.Metrics[m.Name] = reading{res.Metrics[m.Name].Value, m.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(enc))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d missions had a wrong outcome", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// ledger is the file -out writes and -compare reads.
type ledger struct {
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Env       map[string]string `json:"environment"`
	Workloads []*result         `json:"workloads"`
}

// runLedger runs every workload, timed then traced, and prints (and
// optionally writes) all rows.
func runLedger(seed uint64, budget time.Duration, out, spansOut string) error {
	led := ledger{Seed: seed, Seconds: int(budget / time.Second), Env: environment()}
	spans := map[string][]span{}
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		res, err := runTimed(w, seed, budget)
		if err != nil {
			return err
		}
		traced, sp, err := runTraced(w, seed)
		if err != nil {
			return err
		}
		if traced.Digest != res.Digest {
			traced.Failed += traced.Attempted // the two runs simulated different things
		}
		for _, m := range perLayerMetrics {
			res.Metrics[m.Name] = traced.Metrics[m.Name]
		}
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		v := res.Metrics["failed_share"]
		v.Value, v.N = float64(res.Failed)/float64(res.Attempted), res.Attempted
		res.Metrics["failed_share"] = v
		printResult(res, allMetrics())
		led.Workloads = append(led.Workloads, res)
		if spansOut != "" {
			spans[w.name] = sp
		}
		failed += res.Failed
	}
	if err := writeJSON(out, led); err != nil {
		return err
	}
	if err := writeJSON(spansOut, spans); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d missions had a wrong outcome", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printResult(res *result, metrics []metricDef) {
	fmt.Printf("== %s  seeds=%d passes=%d attempted=%d failed=%d sim_digest=%s host_speed=%.4f calib_runs=%d\n",
		res.Workload, res.Seeds, res.Passes, res.Attempted, res.Failed, res.Digest, res.Speed, res.CalibRuns)
	for _, m := range metrics {
		v := res.Metrics[m.Name]
		line := fmt.Sprintf("%-32s %14.6g %-7s %s", m.Name, v.Value, m.Unit, m.Source)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Spread > 0 {
			line += fmt.Sprintf(" pass-spread=%.1f%%", 100*v.Spread)
		}
		fmt.Println(line)
	}
}

func printList() {
	fmt.Println("workloads (seeds x at least 2 passes):")
	for _, w := range workloads {
		fmt.Printf("  %-13s %2d seeds x %2d missions  %s\n", w.name, w.seeds, w.missions(), w.why)
	}
	fmt.Println("metrics (source: E end-to-end, R rig, W workload counter, S harness span, P CPU profile share;")
	fmt.Println("         bounds: -compare between same-seed ledgers / BENCHMARK.json across seeds, - = not bounded):")
	for _, m := range allMetrics() {
		ledger, driver := "-", "-"
		switch {
		case m.Source != "E":
		case m.Abs && m.Bound == 0:
			ledger = "any-rise"
		case m.Abs:
			ledger = fmt.Sprintf("%g-abs", m.Bound)
		default:
			ledger = fmt.Sprintf("%g%%", 100*m.Bound)
		}
		if m.Driver > 0 {
			driver = fmt.Sprint(m.Driver)
		}
		fmt.Printf("  %-32s %-7s %-6s %-8s %-5s %s  %s\n", m.Name, m.Unit, m.better(), ledger, driver, m.Source, m.Doc)
	}
}

// environment records what the numbers were measured on.
func environment() map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"cpu":        "unknown",
		"commit":     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
				env["cpu"] = strings.TrimSpace(val)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}
