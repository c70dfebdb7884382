package experiment

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"selfemerge/internal/testutil"
)

// runPanel runs the preset that draws panel on the figures' estimator, with
// the p axis at step 0.1 and seed 7: coarse settings that keep the paper's
// shapes visible (cmd/emergesim runs the full-resolution sweeps).
func runPanel(t testing.TB, panel string, trials int) *ResultSet {
	t.Helper()
	pr, ok := PresetFor(panel)
	if !ok {
		t.Fatalf("no preset draws %s", panel)
	}
	sw := pr.Sweep(0.1)
	sw.Seed = 7
	rs, err := Runner{Estimator: MonteCarlo{Trials: trials}}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// at returns the result at exactly (series, x), where x is a grid value as
// the emitters print it.
func at(t testing.TB, rs *ResultSet, series string, x float64) Result {
	t.Helper()
	for _, res := range rs.Results {
		if res.Point.Series == series && fnum(res.Point.X) == fnum(x) {
			return res
		}
	}
	t.Fatalf("%s has no point at (%s, %v)", rs.Sweep.Name, series, x)
	return Result{}
}

// curve returns one series' results in X order.
func curve(rs *ResultSet, series string) []Result {
	var out []Result
	for _, res := range rs.Results {
		if res.Point.Series == series {
			out = append(out, res)
		}
	}
	return out
}

func TestFigure6ShapesAt10000(t *testing.T) {
	rs := runPanel(t, "fig6a", 400)

	// Centralized baseline is 1-p everywhere (within MC noise), on one node.
	for _, res := range curve(rs, "central") {
		if diff := res.MinR() - (1 - res.Point.X); diff > 0.06 || diff < -0.06 {
			t.Errorf("central at p=%v: R=%v, want ~%v", res.Point.X, res.MinR(), 1-res.Point.X)
		}
		if res.Cost != 1 {
			t.Errorf("central cost at p=%v = %v", res.Point.X, res.Cost)
		}
	}
	// Paper: joint keeps R > 0.99 before p = 0.34 and > 0.9 before 0.42.
	if got := at(t, rs, "joint", 0.3).MinR(); got < 0.98 {
		t.Errorf("joint R at p=0.3 = %v, want > 0.98", got)
	}
	if got := at(t, rs, "joint", 0.4).MinR(); got < 0.88 {
		t.Errorf("joint R at p=0.4 = %v, want > 0.88", got)
	}
	// Paper: disjoint holds > 0.9 through p = 0.18 then decays to baseline.
	if got := at(t, rs, "disjoint", 0.1).MinR(); got < 0.9 {
		t.Errorf("disjoint R at p=0.1 = %v, want > 0.9", got)
	}
	if got := at(t, rs, "disjoint", 0.5).MinR(); got > 0.58 {
		t.Errorf("disjoint R at p=0.5 = %v, want ~baseline 0.5", got)
	}
	// Ordering: joint >= disjoint (within noise) everywhere.
	for _, joint := range curve(rs, "joint") {
		if disjoint := at(t, rs, "disjoint", joint.Point.X); joint.MinR() < disjoint.MinR()-0.05 {
			t.Errorf("p=%v: joint %v < disjoint %v", joint.Point.X, joint.MinR(), disjoint.MinR())
		}
	}

	// Cost panel: joint cost explodes past p=0.15.
	if got := at(t, rs, "joint", 0.3).Cost; got < 1000 {
		t.Errorf("joint cost at p=0.3 = %v, want > 1000", got)
	}
	if got := at(t, rs, "joint", 0.1).Cost; got > 200 {
		t.Errorf("joint cost at p=0.1 = %v, want modest (< 200)", got)
	}
}

func TestFigure6SmallNetwork(t *testing.T) {
	rs := runPanel(t, "fig6c", 400)
	// Paper: even at N=100 the joint scheme "still keeps good attack
	// resilience".
	if got := at(t, rs, "joint", 0.2).MinR(); got < 0.9 {
		t.Errorf("joint R at p=0.2, N=100 = %v, want > 0.9", got)
	}
	for _, res := range curve(rs, "joint") {
		if res.Cost > 100 {
			t.Errorf("joint cost %v exceeds the 100-node network", res.Cost)
		}
	}
}

func TestFigure7ShareDominatesUnderChurn(t *testing.T) {
	rs := runPanel(t, "fig7", 400)
	share := at(t, rs, "share", 0.2).R

	// Paper: share keeps nearly unchanged high resilience for p < 0.3.
	if share < 0.85 {
		t.Errorf("share R at p=0.2 alpha=3 = %v, want > 0.85", share)
	}
	// All other schemes collapse under churn at alpha=3.
	if got := at(t, rs, "central", 0.1).R; got > 0.2 {
		t.Errorf("central R at alpha=3 = %v, want < 0.2 (exp(-3) ~ 0.05)", got)
	}
	if joint := at(t, rs, "joint", 0.2).R; share <= joint {
		t.Errorf("share (%v) should beat joint (%v) at p=0.2 alpha=3", share, joint)
	}
}

func TestFigure8CostOrdering(t *testing.T) {
	rs := runPanel(t, "fig8", 400)

	// Paper: the 10000-node curve dominates, 1000 keeps R > 0.95 up to
	// p ~ 0.26, and 100 keeps R > 0.9 up to p ~ 0.14.
	if got := at(t, rs, "10000", 0.2).R; got < 0.9 {
		t.Errorf("share R (10000 avail) at p=0.2 = %v, want > 0.9", got)
	}
	if got := at(t, rs, "1000", 0.2).R; got < 0.85 {
		t.Errorf("share R (1000 avail) at p=0.2 = %v, want > 0.85", got)
	}
	if got := at(t, rs, "100", 0.1).R; got < 0.8 {
		t.Errorf("share R (100 avail) at p=0.1 = %v, want > 0.8", got)
	}
	// Ordering at moderate p (tolerating MC noise).
	if at(t, rs, "10000", 0.3).R < at(t, rs, "100", 0.3).R-0.05 {
		t.Errorf("10000-node curve below 100-node curve at p=0.3")
	}
}

// TestOptionsGrid checks how the presets expand: every panel names one
// preset, the p axis runs from 0 to 0.5 at the step, and each series holds
// the preset's base point.
func TestOptionsGrid(t *testing.T) {
	for _, panel := range []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig7", "fig8"} {
		if _, ok := PresetFor(panel); !ok {
			t.Errorf("no preset draws %s", panel)
		}
	}
	if a, _ := PresetFor("fig6a"); a.Name != "fig6-10000" || !slices.Contains(a.Panels, "fig6b") {
		t.Errorf("fig6a and fig6b are not one sweep: %+v", a)
	}
	for _, pr := range Presets {
		sw := pr.Sweep(0.25)
		if got := sw.Axes[0].Labels(); !slices.Equal(got, []string{"0", "0.25", "0.5"}) {
			t.Errorf("%s: p grid = %v", pr.Name, got)
		}
		points, err := sw.Points()
		if err != nil {
			t.Fatalf("%s: %v", pr.Name, err)
		}
		if len(points) != 3*pr.Series.Len() {
			t.Errorf("%s: %d points, want %d", pr.Name, len(points), 3*pr.Series.Len())
		}
		for _, pt := range points {
			if pt.Network != pr.Base.Network || pt.Alpha != pr.Base.Alpha || pt.K != 0 || pt.L != 0 {
				t.Errorf("%s point %d: %+v left the base point", pr.Name, pt.Index, pt)
			}
		}
	}
}

func renderCSV(t *testing.T, rs *ResultSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFiguresIndependentOfGOMAXPROCS: a figure is a pure function of
// (trials, step, seed) — the bytes of fig8 and one fig6 sweep do not depend
// on how many cores render them.
func TestFiguresIndependentOfGOMAXPROCS(t *testing.T) {
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return append(renderCSV(t, runPanel(t, "fig8", 200)), renderCSV(t, runPanel(t, "fig6a", 200))...)
	}
	if one, four := render(1), render(4); !bytes.Equal(one, four) {
		t.Errorf("figures differ between GOMAXPROCS=1 and 4\n1:\n%s4:\n%s", one, four)
	}
}

// The regression goldens pin every figure at 200 trials: measured (min_r,
// r), closed-form (pred_rr, pred_rd) and node-cost columns alike.

func TestFigure6RegressionGolden(t *testing.T) {
	testutil.Golden(t, "fig6-10000.csv", renderCSV(t, runPanel(t, "fig6a", 200)))
	testutil.Golden(t, "fig6-100.csv", renderCSV(t, runPanel(t, "fig6c", 200)))
}

func TestFigure7RegressionGolden(t *testing.T) {
	testutil.Golden(t, "fig7.csv", renderCSV(t, runPanel(t, "fig7", 200)))
}

func TestFigure8RegressionGolden(t *testing.T) {
	testutil.Golden(t, "fig8.csv", renderCSV(t, runPanel(t, "fig8", 200)))
}
