package experiment

import (
	"bytes"
	"testing"

	"selfemerge/internal/core"
	"selfemerge/internal/testutil"
)

// goldenSet renders all three emitters of one result set against goldens.
func goldenSet(t *testing.T, prefix string, rs *ResultSet) {
	t.Helper()
	var csv, js, tbl bytes.Buffer
	if err := rs.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := rs.WriteTable(&tbl); err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, prefix+".csv", csv.Bytes())
	testutil.Golden(t, prefix+".json", js.Bytes())
	testutil.Golden(t, prefix+".table", tbl.Bytes())
}

// TestSweepEmitGoldenMC locks the sweep CSV/JSON/table output schema for the
// Monte Carlo estimator (pinned to one worker, so the bytes are identical on
// every machine).
func TestSweepEmitGoldenMC(t *testing.T) {
	sw := Sweep{
		Name: "golden-mc",
		Seed: 7,
		Base: Point{Network: 500, Alpha: 1, K: 3, L: 2},
		Axes: []Axis{
			RangeAxis("p", 0, 0.2, 0.1),
			SchemeAxis(core.SchemeCentral, core.SchemeJoint),
		},
	}
	rs, err := Runner{Estimator: MonteCarlo{Trials: 100}, Parallel: 2}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	goldenSet(t, "sweep-mc", rs)
}

// TestSweepEmitGoldenAnalytic locks the emitters for the closed-form
// estimator, including a planner-sized multi-axis sweep.
func TestSweepEmitGoldenAnalytic(t *testing.T) {
	sw := Sweep{
		Name: "golden-analytic",
		Seed: 7,
		Base: Point{Network: 1000},
		Axes: []Axis{
			RangeAxis("p", 0, 0.3, 0.15),
			SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint),
		},
	}
	rs, err := Runner{Estimator: Analytic{}, Parallel: 3}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	goldenSet(t, "sweep-analytic", rs)
}
