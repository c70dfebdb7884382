package experiment

import (
	"testing"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
)

func TestSweepExpansion(t *testing.T) {
	sw := Sweep{
		Name: "test",
		Seed: 42,
		Base: Point{Network: 1000, K: 3, L: 2},
		Axes: []Axis{
			RangeAxis("p", 0, 0.2, 0.1),
			SchemeAxis(core.SchemeCentral, core.SchemeJoint),
		},
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("expanded %d points, want 6", len(points))
	}
	// Grid order: series-major (scheme), X-minor (p).
	wantSeries := []string{"central", "central", "central", "joint", "joint", "joint"}
	wantX := []float64{0, 0.1, 0.2, 0, 0.1, 0.2}
	for i, pt := range points {
		if pt.Index != i {
			t.Errorf("point %d has Index %d", i, pt.Index)
		}
		if pt.Series != wantSeries[i] {
			t.Errorf("point %d series %q, want %q", i, pt.Series, wantSeries[i])
		}
		if pt.X != wantX[i] || pt.P != wantX[i] {
			t.Errorf("point %d x/p = %v/%v, want %v", i, pt.X, pt.P, wantX[i])
		}
		if pt.Network != 1000 || pt.K != 3 || pt.L != 2 {
			t.Errorf("point %d lost base fields: %+v", i, pt)
		}
	}
	// Per-point seeds: deterministic, shared at matched X across series
	// (common random numbers), distinct along X.
	if points[0].Seed != 42 {
		t.Errorf("first seed %d, want the sweep seed", points[0].Seed)
	}
	if points[0].Seed == points[1].Seed {
		t.Error("adjacent X points share a seed")
	}
	for i := 0; i < 3; i++ {
		if points[i].Seed != points[i+3].Seed {
			t.Errorf("series at x index %d do not share seeds", i)
		}
	}
	if points[0].Scheme != core.SchemeCentral || points[3].Scheme != core.SchemeJoint {
		t.Errorf("scheme axis not applied: %v / %v", points[0].Scheme, points[3].Scheme)
	}
}

func TestSweepSeriesLabelsMultiAxis(t *testing.T) {
	sw := Sweep{
		Base: Point{Network: 100, Scheme: core.SchemeJoint, K: 2, L: 2},
		Axes: []Axis{
			RangeAxis("p", 0, 0.1, 0.1),
			FloatAxis("alpha", 1, 3),
			mustAxis(t, "strategy=spy,drop"),
		},
	}
	labels := sw.SeriesLabels()
	want := []string{"1/spy", "1/drop", "3/spy", "3/drop"}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Errorf("label[%d] = %q, want %q", i, labels[i], want[i])
		}
	}
	points, err := sw.Points()
	if err != nil {
		t.Fatal(err)
	}
	// Later axes vary fastest: series 1 is alpha=1, strategy=drop.
	if pt := points[2]; pt.Alpha != 1 || pt.Strategy != adversary.StrategyDrop {
		t.Errorf("series 1 point = %+v, want alpha=1 drop", pt)
	}
	if pt := points[4]; pt.Alpha != 3 || pt.Strategy != adversary.StrategySpy {
		t.Errorf("series 2 point = %+v, want alpha=3 spy", pt)
	}
}

// mustAxis parses a command-line axis spec, the one way to declare the
// categorical axes other than scheme.
func mustAxis(t *testing.T, spec string) Axis {
	t.Helper()
	ax, err := ParseAxis(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ax
}

func TestSweepSingleAxisLabel(t *testing.T) {
	sw := Sweep{
		Base: Point{Network: 100, Scheme: core.SchemeJoint, K: 2, L: 2},
		Axes: []Axis{RangeAxis("p", 0, 0.1, 0.1)},
	}
	labels := sw.SeriesLabels()
	if len(labels) != 1 || labels[0] != "joint" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestSweepValidation(t *testing.T) {
	base := Point{Network: 100, Scheme: core.SchemeJoint, K: 2, L: 2}
	cases := []Sweep{
		{Base: base},                            // no axes
		{Base: base, Axes: []Axis{{Name: "p"}}}, // empty axis
		{Base: base, Axes: []Axis{FloatAxis("p", 0.1), FloatAxis("p", 0.2)}},                   // duplicate
		{Base: base, Axes: []Axis{FloatAxis("p", 1.5)}},                                        // invalid rate
		{Base: Point{Scheme: core.SchemeJoint, K: 2, L: 2}, Axes: []Axis{FloatAxis("p", 0.1)}}, // no network
		{Base: base, Axes: []Axis{SchemeAxis(core.SchemeCentral, core.SchemeJoint)}},           // categorical X axis
		{Base: base, Axes: []Axis{FloatAxis("k", 2.5)}},                                        // fractional integer axis
		{Base: base, Axes: []Axis{FloatAxis("p", 0.1), FloatAxis("budget", 100, 1000)}},        // budget with explicit shape
		{Base: base, Axes: []Axis{mustAxis(t, "strategy=spy"), FloatAxis("p", 0.1)}},           // categorical X axis
		{Base: base, Axes: []Axis{mustAxis(t, "table=naive"), FloatAxis("p", 0.1)}},            // categorical X axis
	}
	for i, sw := range cases {
		if _, err := sw.Points(); err == nil {
			t.Errorf("sweep %d accepted", i)
		}
	}
}

func TestRangeAxisNeverOvershootsStop(t *testing.T) {
	if got := RangeAxis("alpha", 0, 10, 4).Labels(); len(got) != 3 || got[2] != "8" {
		t.Errorf("0:10:4 = %v, want [0 4 8]", got)
	}
	if got := RangeAxis("p", 0.5, 1, 0.3).Labels(); len(got) != 2 || got[1] != "0.8" {
		t.Errorf("0.5:1:0.3 = %v, want [0.5 0.8]", got)
	}
	// Exact divisions keep their endpoint, including ratios that land just
	// below an integer in floating point (0.5/0.02 = 24.999...).
	if got := RangeAxis("p", 0, 0.5, 0.02).Labels(); len(got) != 26 || got[25] != "0.5" {
		t.Errorf("0:0.5:0.02 has %d values ending %v, want 26 ending 0.5", len(got), got[len(got)-1])
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("p=0:0.5:0.25")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Labels(); len(got) != 3 || got[0] != "0" || got[2] != "0.5" {
		t.Errorf("range labels = %v", got)
	}
	ax, err = ParseAxis("alpha=1,3,5")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Labels(); len(got) != 3 || got[1] != "3" {
		t.Errorf("list labels = %v", got)
	}
	ax, err = ParseAxis("scheme=central,share")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Labels(); len(got) != 2 || got[1] != "share" {
		t.Errorf("scheme labels = %v", got)
	}
	ax, err = ParseAxis("strategy=spy,drop,eclipse")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Labels(); len(got) != 3 || got[2] != "eclipse" {
		t.Errorf("strategy labels = %v", got)
	}
	ax, err = ParseAxis("table=naive,pingevict")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Labels(); len(got) != 2 || got[1] != "pingevict" {
		t.Errorf("table labels = %v", got)
	}
	ax, err = ParseAxis("forge=0:60:30")
	if err != nil {
		t.Fatal(err)
	}
	if got := ax.Labels(); len(got) != 3 || got[2] != "60" {
		t.Errorf("forge labels = %v", got)
	}
	// The CLI alias nodes= maps onto the network axis.
	ax, err = ParseAxis("nodes=100,1000")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "network" {
		t.Errorf("nodes alias parsed as %q", ax.Name)
	}

	for _, bad := range []string{
		"", "p", "p=", "=1", "bogus=1", "p=a,b", "p=0:0.5", "p=0:0.5:0", "p=0.5:0:0.1", "scheme=warp", "drop=drop",
		"strategy=ddos", "table=btree",
	} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

func TestPointPlanAndEnv(t *testing.T) {
	pt := Point{Scheme: core.SchemeJoint, P: 0.25, Alpha: 2, Network: 400}
	plan, err := pt.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.Scheme != core.SchemeJoint || plan.K < 1 || plan.L < 1 {
		t.Errorf("planner-sized plan = %+v", plan)
	}
	env := pt.Env()
	if env.Population != 400 || env.Malicious != 100 || env.Alpha != 2 {
		t.Errorf("env = %+v", env)
	}

	// Explicit shapes bypass the planner.
	pt = Point{Scheme: core.SchemeJoint, P: 0.1, Network: 400, K: 3, L: 2}
	plan, err = pt.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 3 || plan.L != 2 {
		t.Errorf("explicit plan = %+v", plan)
	}
}
