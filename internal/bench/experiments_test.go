package bench

import (
	"bytes"
	"strings"
	"testing"
)

// Coarse, fast settings for CI; cmd/emergesim runs the full-resolution
// sweeps.
func fastOpts() Options {
	return Options{Trials: 400, PStep: 0.1, Seed: 7}
}

func TestFigure6ShapesAt10000(t *testing.T) {
	res, cost, err := Figure6(10000, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	central, ok := res.SeriesByLabel("central")
	if !ok {
		t.Fatal("missing central series")
	}
	disjoint, _ := res.SeriesByLabel("disjoint")
	joint, _ := res.SeriesByLabel("joint")

	// Centralized baseline is 1-p everywhere (within MC noise).
	for _, pt := range central.Points {
		if diff := pt.Y - (1 - pt.X); diff > 0.06 || diff < -0.06 {
			t.Errorf("central at p=%v: R=%v, want ~%v", pt.X, pt.Y, 1-pt.X)
		}
	}
	// Paper: joint keeps R > 0.99 before p = 0.34 and > 0.9 before 0.42.
	if got := joint.ValueAt(0.3); got < 0.98 {
		t.Errorf("joint R at p=0.3 = %v, want > 0.98", got)
	}
	if got := joint.ValueAt(0.4); got < 0.88 {
		t.Errorf("joint R at p=0.4 = %v, want > 0.88", got)
	}
	// Paper: disjoint holds > 0.9 through p = 0.18 then decays to baseline.
	if got := disjoint.ValueAt(0.1); got < 0.9 {
		t.Errorf("disjoint R at p=0.1 = %v, want > 0.9", got)
	}
	if got := disjoint.ValueAt(0.5); got > 0.58 {
		t.Errorf("disjoint R at p=0.5 = %v, want ~baseline 0.5", got)
	}
	// Ordering: joint >= disjoint (within noise) everywhere.
	for i := range joint.Points {
		if joint.Points[i].Y < disjoint.Points[i].Y-0.05 {
			t.Errorf("p=%v: joint %v < disjoint %v", joint.Points[i].X, joint.Points[i].Y, disjoint.Points[i].Y)
		}
	}

	// Cost panel: central constant 1; joint cost explodes past p=0.15.
	centralCost, _ := cost.SeriesByLabel("central")
	for _, pt := range centralCost.Points {
		if pt.Y != 1 {
			t.Errorf("central cost at p=%v = %v", pt.X, pt.Y)
		}
	}
	jointCost, _ := cost.SeriesByLabel("joint")
	if got := jointCost.ValueAt(0.3); got < 1000 {
		t.Errorf("joint cost at p=0.3 = %v, want > 1000", got)
	}
	if got := jointCost.ValueAt(0.1); got > 200 {
		t.Errorf("joint cost at p=0.1 = %v, want modest (< 200)", got)
	}
}

func TestFigure6SmallNetwork(t *testing.T) {
	res, cost, err := Figure6(100, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	joint, _ := res.SeriesByLabel("joint")
	// Paper: even at N=100 the joint scheme "still keeps good attack
	// resilience".
	if got := joint.ValueAt(0.2); got < 0.9 {
		t.Errorf("joint R at p=0.2, N=100 = %v, want > 0.9", got)
	}
	jointCost, _ := cost.SeriesByLabel("joint")
	for _, pt := range jointCost.Points {
		if pt.Y > 100 {
			t.Errorf("joint cost %v exceeds the 100-node network", pt.Y)
		}
	}
}

func TestFigure7ShareDominatesUnderChurn(t *testing.T) {
	fig, err := Figure7(3, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	share, ok := fig.SeriesByLabel("share")
	if !ok {
		t.Fatal("missing share series")
	}
	joint, _ := fig.SeriesByLabel("joint")
	central, _ := fig.SeriesByLabel("central")

	// Paper: share keeps nearly unchanged high resilience for p < 0.3.
	if got := share.ValueAt(0.2); got < 0.85 {
		t.Errorf("share R at p=0.2 alpha=3 = %v, want > 0.85", got)
	}
	// All other schemes collapse under churn at alpha=3.
	if got := central.ValueAt(0.1); got > 0.2 {
		t.Errorf("central R at alpha=3 = %v, want < 0.2 (exp(-3) ~ 0.05)", got)
	}
	if share.ValueAt(0.2) <= joint.ValueAt(0.2) {
		t.Errorf("share (%v) should beat joint (%v) at p=0.2 alpha=3",
			share.ValueAt(0.2), joint.ValueAt(0.2))
	}
}

func TestFigure8CostOrdering(t *testing.T) {
	fig, err := Figure8(fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	n100, _ := fig.SeriesByLabel("100")
	n1000, _ := fig.SeriesByLabel("1000")
	n10000, _ := fig.SeriesByLabel("10000")

	// Paper: the 10000-node curve dominates, 1000 keeps R > 0.95 up to
	// p ~ 0.26, and 100 keeps R > 0.9 up to p ~ 0.14.
	if got := n10000.ValueAt(0.2); got < 0.9 {
		t.Errorf("share R (10000 avail) at p=0.2 = %v, want > 0.9", got)
	}
	if got := n1000.ValueAt(0.2); got < 0.85 {
		t.Errorf("share R (1000 avail) at p=0.2 = %v, want > 0.85", got)
	}
	if got := n100.ValueAt(0.1); got < 0.8 {
		t.Errorf("share R (100 avail) at p=0.1 = %v, want > 0.8", got)
	}
	// Ordering at moderate p (tolerating MC noise).
	if n10000.ValueAt(0.3) < n100.ValueAt(0.3)-0.05 {
		t.Errorf("10000-node curve below 100-node curve at p=0.3")
	}
}

func TestFigureRendering(t *testing.T) {
	fig := Figure{
		ID: "test", Title: "demo", XLabel: "p", YLabel: "R",
		Series: []Series{
			{Label: "a", Points: []Point{{0, 1}, {0.5, 0.8}}},
			{Label: "b", Points: []Point{{0, 0.9}, {0.5, 0.7}}},
		},
	}
	var csv bytes.Buffer
	if err := fig.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "p,a,b\n0,1\n" // prefix check
	if !strings.HasPrefix(csv.String(), "p,a,b\n") {
		t.Errorf("CSV header wrong: %q (want prefix %q)", csv.String(), want)
	}
	if !strings.Contains(csv.String(), "0.5,0.8,0.7") {
		t.Errorf("CSV rows wrong: %q", csv.String())
	}
	var tbl bytes.Buffer
	if err := fig.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "demo") || !strings.Contains(tbl.String(), "0.8000") {
		t.Errorf("table rendering wrong: %q", tbl.String())
	}
}

func TestFigureRenderingMisaligned(t *testing.T) {
	fig := Figure{
		XLabel: "p",
		Series: []Series{
			{Label: "a", Points: []Point{{0, 1}, {0.5, 0.8}}},
			{Label: "b", Points: []Point{{0, 0.9}}},
		},
	}
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err == nil {
		t.Error("misaligned series accepted by WriteCSV")
	}
	if err := fig.WriteTable(&buf); err == nil {
		t.Error("misaligned series accepted by WriteTable")
	}
}

func TestOptionsGrid(t *testing.T) {
	o := Options{PStep: 0.25}.withDefaults()
	grid := o.pAxis().Labels()
	want := []string{"0", "0.25", "0.5"}
	if len(grid) != len(want) {
		t.Fatalf("grid = %v", grid)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Errorf("grid[%d] = %v, want %v", i, grid[i], want[i])
		}
	}
}

func TestSeriesValueAt(t *testing.T) {
	s := Series{Points: []Point{{0, 1}, {0.2, 0.9}, {0.4, 0.5}}}
	if got := s.ValueAt(0.19); got != 0.9 {
		t.Errorf("ValueAt(0.19) = %v", got)
	}
	if got := s.ValueAt(10); got != 0.5 {
		t.Errorf("ValueAt(10) = %v", got)
	}
}

func TestFigure6IncludePredicted(t *testing.T) {
	opts := fastOpts()
	opts.IncludePredicted = true
	opts.PStep = 0.25
	res, _, err := Figure6(10000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.SeriesByLabel("joint/eq"); !ok {
		t.Error("predicted series missing")
	}
}
