package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
)

// fakeEstimator records call counts and fails on demand. When order is set,
// the failAt point blocks until the failAt2 point has failed: the runner may
// legitimately skip dispatched-but-unstarted points once a failure aborts
// the run, so a test asserting which of two failures is reported must pin
// their relative order instead of racing the worker pool.
type fakeEstimator struct {
	calls   atomic.Int64
	failAt  int // point index to fail on; -1 disables
	failAt2 int
	order   chan struct{}
}

func (f *fakeEstimator) Name() string { return "fake" }

func (f *fakeEstimator) Estimate(pt Point) (Result, error) {
	f.calls.Add(1)
	if pt.Index == f.failAt2 {
		if f.order != nil {
			close(f.order)
		}
		return Result{}, fmt.Errorf("boom at %d", pt.Index)
	}
	if pt.Index == f.failAt {
		if f.order != nil {
			<-f.order
		}
		return Result{}, fmt.Errorf("boom at %d", pt.Index)
	}
	return Result{Point: pt, R: float64(pt.Index)}, nil
}

func testSweep() Sweep {
	return Sweep{
		Seed: 1,
		Base: Point{Network: 100, K: 2, L: 2},
		Axes: []Axis{
			RangeAxis("p", 0, 0.3, 0.1),
			SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint),
		},
	}
}

func TestRunnerGridOrder(t *testing.T) {
	est := &fakeEstimator{failAt: -1, failAt2: -1}
	rs, err := Runner{Estimator: est, Parallel: 5}.Run(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	if est.calls.Load() != 12 {
		t.Errorf("estimator called %d times, want 12", est.calls.Load())
	}
	for i, res := range rs.Results {
		if res.Point.Index != i || res.R != float64(i) {
			t.Errorf("result %d out of grid order: %+v", i, res.Point)
		}
	}
	series := rs.SeriesResults()
	if len(series) != 3 || len(series[0]) != 4 {
		t.Fatalf("series layout %dx%d, want 3x4", len(series), len(series[0]))
	}
	if series[2][1].Point.Series != "joint" || series[2][1].Point.X != 0.1 {
		t.Errorf("series grouping wrong: %+v", series[2][1].Point)
	}
}

func TestRunnerFirstErrorByGridOrder(t *testing.T) {
	// Two failing points: the reported error must be the earliest by grid
	// order regardless of completion order. The order gate guarantees point
	// 3 has started (and so will be recorded) before point 7 may fail.
	est := &fakeEstimator{failAt: 7, failAt2: 3, order: make(chan struct{})}
	_, err := Runner{Estimator: est, Parallel: 4}.Run(testSweep())
	if err == nil {
		t.Fatal("runner swallowed the failure")
	}
	if want := "boom at 3"; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Errorf("err = %v, want the earliest point's %q", err, want)
	}
}

func TestRunnerNeedsEstimator(t *testing.T) {
	if _, err := (Runner{}).Run(testSweep()); err == nil {
		t.Error("runner without estimator accepted")
	}
}

func TestRunnerAbortsAfterFailure(t *testing.T) {
	// With one worker the schedule is deterministic: the failure at point 2
	// must stop the run before the remaining 9 points execute.
	est := &fakeEstimator{failAt: 2, failAt2: -1}
	if _, err := (Runner{Estimator: est, Parallel: 1}).Run(testSweep()); err == nil {
		t.Fatal("runner swallowed the failure")
	}
	if got := est.calls.Load(); got != 3 {
		t.Errorf("estimator ran %d points after the failure at index 2, want 3 total", got)
	}
}

// TestAbstractEstimatorsRejectLiveOnlyAxes: every live-only table row is
// refused by the abstract estimators, as a turned base value (point level)
// and as an axis (sweep level) — including the arms the hand-written checks
// used to let through: severity without a profile, a profile without
// severity, and retry=1.
func TestAbstractEstimatorsRejectLiveOnlyAxes(t *testing.T) {
	base := Point{Scheme: core.SchemeJoint, P: 0.1, Network: 100, K: 2, L: 2, Replicas: 1}
	turned := map[string]func(*Point){
		"replicas":  func(pt *Point) { pt.Replicas = 2 },
		"strategy":  func(pt *Point) { pt.Strategy = adversary.StrategyEclipse },
		"forge":     func(pt *Point) { pt.Strategy, pt.Forge = adversary.StrategyEclipse, 30 },
		"table":     func(pt *Point) { pt.Table = dht.TablePingEvict },
		"partition": func(pt *Point) { pt.Partition = 2 },
		"fault":     func(pt *Point) { pt.Fault = fault.ProfileBurst },
		"faultsev":  func(pt *Point) { pt.FaultSev = 0.3 },
		"retry":     func(pt *Point) { pt.Retry = 1 },
	}
	estimators := []Estimator{Analytic{}, MonteCarlo{Trials: 10}}
	for _, pa := range Params {
		if !pa.LiveOnly {
			continue
		}
		turn, ok := turned[pa.Name]
		if !ok {
			t.Errorf("live-only row %q has no case here", pa.Name)
			continue
		}
		pt := base
		turn(&pt)
		for _, est := range estimators {
			_, err := est.Estimate(pt)
			if err == nil || !strings.Contains(err.Error(), "live estimator only") {
				t.Errorf("%s estimator on a turned %s: err = %v, want a live-estimator-only rejection", est.Name(), pa.Name, err)
			}
		}
	}
	for _, est := range estimators {
		if _, err := est.Estimate(base); err != nil {
			t.Errorf("%s estimator refused the neutral base (replicas=1): %v", est.Name(), err)
		}
	}

	// The sweeps that used to exit 0 with identical series under distinct
	// labels, plus an all-neutral live-only axis, fail at Validate and name
	// their axis.
	for _, tc := range []struct {
		est  Estimator
		axis string
	}{
		{MonteCarlo{Trials: 10}, "faultsev=0.3,0.6"},
		{MonteCarlo{Trials: 10}, "fault=burst,flap"},
		{Analytic{}, "retry=0,1"},
		{MonteCarlo{Trials: 10}, "replicas=0,1"},
		{Analytic{}, "strategy=spy"},
	} {
		sw := Sweep{Base: base, Axes: []Axis{RangeAxis("p", 0, 0.2, 0.1), mustAxis(t, tc.axis)}}
		name, _, _ := strings.Cut(tc.axis, "=")
		err := Runner{Estimator: tc.est}.Validate(sw)
		if err == nil || !strings.Contains(err.Error(), "the "+name+" axis applies to the live estimator only") {
			t.Errorf("%s estimator, -axis %s: err = %v, want a rejection naming the axis", tc.est.Name(), tc.axis, err)
		}
	}
}

func TestRunnerValidatePreflightsWithoutEstimating(t *testing.T) {
	est := &fakeEstimator{failAt: -1, failAt2: -1}
	// An invalid share shape (no ShareN) fails plan construction for every
	// point; Validate must report it without a single Estimate call.
	sw := Sweep{
		Base: Point{Scheme: core.SchemeKeyShare, Network: 100, K: 2, L: 3},
		Axes: []Axis{RangeAxis("p", 0, 0.2, 0.1)},
	}
	if err := (Runner{Estimator: est}).Validate(sw); err == nil {
		t.Error("Validate accepted an invalid share shape")
	}
	// Estimator-specific checks run through the PointChecker interface.
	churned := Sweep{
		Base: Point{Scheme: core.SchemeJoint, Network: 100, Alpha: 3, K: 2, L: 2},
		Axes: []Axis{RangeAxis("p", 0, 0.2, 0.1)},
	}
	if err := (Runner{Estimator: Analytic{}}).Validate(churned); err == nil {
		t.Error("Validate accepted an alpha sweep for the no-churn closed forms")
	}
	if err := (Runner{Estimator: est}).Validate(churned); err != nil {
		t.Errorf("Validate rejected a valid sweep for a checker-less estimator: %v", err)
	}
	if est.calls.Load() != 0 {
		t.Errorf("Validate ran %d estimates", est.calls.Load())
	}
}

func TestAnalyticRejectsChurnForNoChurnSchemes(t *testing.T) {
	churned := Point{Scheme: core.SchemeJoint, P: 0.1, Alpha: 3, Network: 100, K: 2, L: 2}
	if _, err := (Analytic{}).Estimate(churned); err == nil {
		t.Error("analytic estimator silently ignored alpha for a no-churn closed form")
	}
	// The key share scheme's Algorithm 1 does consume alpha.
	share := Point{Scheme: core.SchemeKeyShare, P: 0.1, Alpha: 3, Network: 1000}
	if _, err := (Analytic{}).Estimate(share); err != nil {
		t.Errorf("analytic estimator rejected a churned key-share point: %v", err)
	}
}

// TestSweepDeterministicAcrossWorkerCounts is the satellite determinism
// guarantee: the same sweep, same seed, emitted byte-identically no matter
// how many runner workers executed it. The Monte Carlo estimator pins its
// per-point worker count so the trial partition is fixed too.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	sw := testSweep()
	est := MonteCarlo{Trials: 120}
	var outputs [][]byte
	for _, parallel := range []int{1, 4, 16} {
		rs, err := Runner{Estimator: est, Parallel: parallel}.Run(sw)
		if err != nil {
			t.Fatal(err)
		}
		var csv, js bytes.Buffer
		if err := rs.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, append(csv.Bytes(), js.Bytes()...))
	}
	for i := 1; i < len(outputs); i++ {
		if !bytes.Equal(outputs[0], outputs[i]) {
			t.Errorf("output with worker count %d differs from worker count 1", []int{1, 4, 16}[i])
		}
	}
}

func TestAnalyticEstimator(t *testing.T) {
	res, err := Analytic{}.Estimate(Point{Scheme: core.SchemeCentral, P: 0.2, Network: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rr != 0.8 || res.Rd != 0.8 || res.R != 0.8 || res.Cost != 1 {
		t.Errorf("central closed form = %+v", res)
	}
	// Explicit key share shapes have no closed form.
	_, err = Analytic{}.Estimate(Point{
		Scheme: core.SchemeKeyShare, P: 0.1, Network: 100,
		K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2},
	})
	if err == nil {
		t.Error("analytic estimator accepted an explicit share shape")
	}
}

func TestMonteCarloEstimator(t *testing.T) {
	pt := Point{Scheme: core.SchemeJoint, P: 0.1, Network: 1000, K: 3, L: 2, Seed: 9}
	res, err := MonteCarlo{Trials: 400}.Estimate(pt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples != 400 {
		t.Fatalf("samples = %d", res.Samples)
	}
	if res.Rr < 0.9 || res.Rd < 0.95 {
		t.Errorf("joint 3x2 at p=0.1: Rr=%v Rd=%v, want high", res.Rr, res.Rd)
	}
	// Same point, same result (the estimator is deterministic and pure).
	again, err := MonteCarlo{Trials: 400}.Estimate(pt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Released != again.Released || res.Delivered != again.Delivered {
		t.Error("Monte Carlo estimator not deterministic for a fixed point")
	}
}
