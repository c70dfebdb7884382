package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"selfemerge/internal/scenario"
)

// TestProductPath holds the harness's instrumented drive loop to the
// product's own: for one seed of every scenario workload, runScenario must
// reproduce what scenario.Measure reports, so the benchmark cannot drift
// from scenario.Drive.
func TestProductPath(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		if w.scenario == nil {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			seed := w.repSeeds(2017)[0]
			got, err := w.runRep(seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfg := *w.scenario
			cfg.Seed = seed
			want, err := scenario.Measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := got.sim
			if s.Result != want.Live {
				t.Errorf("live result %+v, scenario.Measure %+v", s.Result, want.Live)
			}
			if s.Sent != want.Sent || s.Recv != want.Recv || s.Dropped != want.Dropped {
				t.Errorf("fabric %d/%d/%d, scenario.Measure %d/%d/%d", s.Sent, s.Recv, s.Dropped, want.Sent, want.Recv, want.Dropped)
			}
			if s.Deaths != want.Deaths || s.Joins != want.Joins {
				t.Errorf("churn %d/%d, scenario.Measure %d/%d", s.Deaths, s.Joins, want.Deaths, want.Joins)
			}
			if s.Epochs != want.Epochs {
				t.Errorf("epochs %d, scenario.Measure %d", s.Epochs, want.Epochs)
			}
			if got.wrong != 0 {
				t.Errorf("%d wrong outcomes", got.wrong)
			}
			if len(s.Lags) != s.Result.Delivered {
				t.Errorf("%d lags for %d delivered missions", len(s.Lags), s.Result.Delivered)
			}
		})
	}
}

func TestMeanOfTakesPerSeedMean(t *testing.T) {
	ms := time.Millisecond
	reps := []rep{
		{host: hostStats{setup: 5 * ms, drive: 90 * ms, cpu: 80 * ms, mallocs: 100, bytes: 900, heap: 7, sends: []time.Duration{30, 10}}},
		{host: hostStats{setup: 4 * ms, drive: 95 * ms, cpu: 85 * ms, mallocs: 90, bytes: 950, heap: 8, sends: []time.Duration{20, 40}}},
		{host: hostStats{setup: 6 * ms, drive: 85 * ms, cpu: 75 * ms, mallocs: 95, bytes: 850, heap: 9, sends: []time.Duration{25, 10}}},
	}
	mean := meanOf(reps)
	if mean.setup != 5*ms || mean.drive != 90*ms || mean.cpu != 80*ms || mean.mallocs != 95 || mean.bytes != 900 || mean.heap != 8 {
		t.Errorf("meanOf = %+v", mean)
	}
	if mean.sends[0] != 25 || mean.sends[1] != 20 {
		t.Errorf("sends averaged per mission: got %v", mean.sends)
	}
	if reps[0].host.sends[0] != 30 {
		t.Error("meanOf modified its input")
	}
}

// TestHostTimeIsOnTheKernelClock: a run on a host at half speed measures
// twice the time and reports the same numbers.
func TestHostTimeIsOnTheKernelClock(t *testing.T) {
	w := findWorkload("steady-120")
	ms := time.Millisecond
	quiet := []hostStats{{setup: 20 * ms, drive: 90 * ms, cpu: 100 * ms, sends: []time.Duration{30000}}}
	slow := []hostStats{{setup: 40 * ms, drive: 180 * ms, cpu: 200 * ms, sends: []time.Duration{60000}}}
	sims := []simStats{{}}
	a, b := endToEnd(w, quiet, sims, 1), endToEnd(w, slow, sims, 0.5)
	for _, name := range []string{"setup_s", "missions_per_s", "cpu_ms_per_mission", "send_us_p50"} {
		if a[name].Value != b[name].Value || a[name].Value == 0 {
			t.Errorf("%s: %v at speed 1, %v at speed 0.5", name, a[name].Value, b[name].Value)
		}
	}
	if got := a["missions_per_s"].Value; math.Abs(got-30/0.09) > 1e-9 {
		t.Errorf("missions_per_s = %v", got)
	}
}

func TestCalibrator(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if c.runs != 0 || c.total != 0 {
		t.Errorf("warm-up runs counted: %d runs, %v", c.runs, c.total)
	}
	// One cycle through every index: the chain never shortens.
	seen, at := 0, uint32(0)
	for ok := true; ok; ok = at != 0 {
		at = c.chase[at]
		seen++
	}
	if seen != chaseWords {
		t.Errorf("chase cycle has %d of %d indices", seen, chaseWords)
	}
	c.keepUp(0)
	if c.runs != 1 {
		t.Errorf("keepUp(0) ran the kernel %d times, want once", c.runs)
	}
	work := 200 * time.Millisecond
	c.keepUp(work)
	if float64(c.total) < calibShare*float64(work) {
		t.Errorf("kernel had %v of %v work, want a share of %v", c.total, work, calibShare)
	}
	if s := c.speed(); s <= 0 || s > 10 {
		t.Errorf("speed %v", s)
	}
	var none *calibrator
	if none.speed() != 1 {
		t.Error("no calibrator means speed 1")
	}
}

func TestQuantileLeavesTenSamplesBeyond(t *testing.T) {
	sorted := make([]float64, 120)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if got := quantile(sorted, 0.5); got != 60 {
		t.Errorf("median of 1..120 = %v", got)
	}
	// p90 of 120 samples leaves 12 beyond: allowed as asked.
	if q := tailQuantile(120, 0.9); q != 0.9 {
		t.Errorf("tailQuantile(120, 0.9) = %v", q)
	}
	// p99 of 120 leaves 1.2: lowered until ten lie beyond.
	q := tailQuantile(120, 0.99)
	if got := quantile(sorted, q); got != 110 {
		t.Errorf("capped p99 of 1..120 = %v (q=%v), want 110: ten samples beyond", got, q)
	}
	if q := tailQuantile(12, 0.9); q != 0.5 {
		t.Errorf("tailQuantile never goes below the median: got %v", q)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4)
// (exclusive method) and statistics.median, the procedure that accepts the
// benchmark.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		{[]float64{10, 12, 11, 15, 9, 30, 11}, 10, 11, 15},
	} {
		q1, med, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if s := quartileSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{Name: "drive", Start: 0, End: 100, Parent: -1},
		{Name: "send", Start: 10, End: 30, Parent: 0},
		{Name: "run", Start: 30, End: 90, Parent: 0},
		{Name: "send", Start: 40, End: 45, Parent: 2},
	}
	self := selfTimes(spans)
	if self["drive"] != 20 || self["send"] != 25 || self["run"] != 55 {
		t.Errorf("self times %v", self)
	}
	tr := newTracer()
	outer := tr.begin("outer", -1)
	inner := tr.begin("inner", 3)
	tr.end(inner)
	tr.end(outer)
	if tr.spans[1].Parent != 0 || tr.spans[1].Mission != 3 || tr.spans[0].Parent != -1 || len(tr.open) != 0 {
		t.Errorf("tracer nesting: %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("nothing", -1)) // a nil tracer records nothing and must not panic
}

//go:noinline
func spinForProfile(d time.Duration) (x uint64) {
	for began := time.Now(); time.Since(began) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileReader parses a real runtime/pprof CPU profile.
func TestProfileReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(400 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, spin int64
	for _, s := range samples {
		total += s.value
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spin += s.value
				break
			}
		}
	}
	// 400 ms at 100 Hz is ~40 samples of 10 ms; a loaded box delivers fewer.
	if total < int64(100*time.Millisecond) {
		t.Fatalf("profile holds %v of CPU time in %d samples", time.Duration(total), len(samples))
	}
	if float64(spin) < 0.8*float64(total) {
		t.Errorf("spinForProfile on the stack of %v of %v", time.Duration(spin), time.Duration(total))
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
	if _, err := readFields([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("readFields accepted a truncated length-delimited field")
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"dht", []string{"selfemerge/internal/dht.(*Table).appendClosestRanked", "selfemerge/internal/dht.(*Node).handle"}},
		{"dht", []string{"encoding/binary.bigEndian.Uint64", "selfemerge/internal/dht.ID.XOR", "selfemerge.(*Network).RunFor"}},
		{"dht", []string{"runtime.asyncPreempt", "selfemerge/internal/dht.(*Table).Observe"}},
		{"dht", []string{"runtime.memmove", "selfemerge/internal/dht.(*Node).send"}},
		{"simnet", []string{"memeqbody", "selfemerge/internal/transport/simnet.(*Network).deliver"}},
		{"crypto", []string{"crypto/internal/fips140/aes/gcm.gcmAesEnc", "crypto/cipher.(*gcm).Seal", "selfemerge/internal/crypto/seal.(*Sealer).Encrypt"}},
		{"network", []string{"selfemerge.(*Network).Send"}},
		{"mutex", []string{"sync.(*Mutex).Unlock", "selfemerge/internal/dht.(*Node).handle"}},
		{"mutex", []string{"internal/runtime/atomic.(*Int32).CompareAndSwap", "internal/sync.(*Mutex).Lock", "sync.(*Mutex).Lock", "selfemerge/internal/sim.(*Simulator).Step"}},
		{"malloc", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "selfemerge/internal/dht.(*Node).send"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "selfemerge/internal/dht.(*Node).send"}},
		{"runtime", []string{"runtime.futex", "runtime.notesleep", "runtime.mstart"}},
		{"other", []string{"main.runScenario", "main.main"}},
		{"other", nil},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	shares := cpuShares([]stackSample{
		{stack: []string{"selfemerge/internal/dht.(*Table).Observe"}, value: 30},
		{stack: []string{"runtime.gcBgMarkWorker"}, value: 10},
	})
	if shares["dht"] != 0.75 || shares["gc"] != 0.25 {
		t.Errorf("shares %v", shares)
	}
}

func TestVerdict(t *testing.T) {
	rate := metricDef{Name: "missions_per_s", HigherBetter: true, Bound: 0.10}
	lag := metricDef{Name: "setup_s", Bound: 0.10}
	rd := metricDef{Name: "rd", HigherBetter: true, Bound: 0.02, Abs: true}
	failed := metricDef{Name: "failed_share", Bound: 0, Abs: true}
	for _, c := range []struct {
		m          metricDef
		base, next value
		want       string
	}{
		{rate, value{Value: 100}, value{Value: 95}, "ok"},
		{rate, value{Value: 100}, value{Value: 85}, "regressed"},
		{rate, value{Value: 100}, value{Value: 130}, "ok"},
		{rate, value{Value: 100, Spread: 0.2}, value{Value: 85}, "unresolved"},
		{lag, value{Value: 1}, value{Value: 1.2}, "regressed"},
		{lag, value{Value: 1}, value{Value: 0.5}, "ok"},
		{rd, value{Value: 0.57}, value{Value: 0.56}, "ok"},
		{rd, value{Value: 0.57}, value{Value: 0.54}, "regressed"},
		{failed, value{Value: 0}, value{Value: 0}, "ok"},
		{failed, value{Value: 0}, value{Value: 0.001}, "regressed"},
	} {
		if got := verdict(c.m, c.base, c.next); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.base.Value, c.next.Value, got, c.want)
		}
	}
}

func TestRepSeedsDependOnSeedAndWorkload(t *testing.T) {
	a, b := findWorkload("steady-120"), findWorkload("faulty-120")
	sa, sb, other := a.repSeeds(1), b.repSeeds(1), a.repSeeds(2)
	if len(sa) != a.seeds || sa[0] == sa[1] || sa[0] == sb[0] || sa[0] == other[0] {
		t.Errorf("seed derivation: %v %v %v", sa[:2], sb[:2], other[:2])
	}
	if again := a.repSeeds(1); again[0] != sa[0] || again[len(again)-1] != sa[len(sa)-1] {
		t.Error("same run seed must give the same inputs")
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the code's tables in
// step: the one-workload runs must print exactly the metrics it lists.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if strings.Join(spec.Command, " ") != "bash benchmark/run.sh" || len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("command %v paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q", i, w.Name, w.Why)
		}
	}
	check := func(kind string, listed []metric, defined []metricDef, bounded bool) {
		if len(listed) != len(defined) {
			t.Errorf("%s: %d listed, %d defined", kind, len(listed), len(defined))
			return
		}
		for i, m := range listed {
			d := defined[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.better() {
				t.Errorf("%s %d: listed %s/%s/%s, defined %s/%s/%s", kind, i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.better())
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Driver || *m.Bound > 0.25):
				t.Errorf("%s: listed bound %v, defined %v (at most 0.25)", m.Name, m.Bound, d.Driver)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, timedMetrics(), true)
	check("per_layer", spec.PerLayer, tracedMetrics(), false)
	widest := 0.0
	var setup float64
	for _, m := range spec.EndToEnd {
		widest = max(widest, *m.Bound)
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	if setup != widest {
		t.Errorf("setup_s bound %v is not the widest (%v)", setup, widest)
	}
}
