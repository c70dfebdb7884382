package bench

import (
	"bytes"
	"runtime"
	"testing"

	"selfemerge/internal/testutil"
)

// regressOpts pins the one source of randomness, the seed. The golden files
// were generated from the pre-experiment-runner figure loops on a single
// Monte Carlo worker; the sweep-based generators must reproduce them byte for
// byte on any machine.
func regressOpts() Options {
	return Options{Trials: 200, PStep: 0.1, Seed: 7, IncludePredicted: true}
}

// TestFiguresIndependentOfGOMAXPROCS: a figure is a pure function of
// (trials, step, seed) — the bytes of fig8 and one fig6 panel do not depend
// on how many cores render them.
func TestFiguresIndependentOfGOMAXPROCS(t *testing.T) {
	render := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		fig8, err := Figure8(regressOpts())
		if err != nil {
			t.Fatal(err)
		}
		fig6, _, err := Figure6(10000, regressOpts())
		if err != nil {
			t.Fatal(err)
		}
		return append(renderCSV(t, fig8), renderCSV(t, fig6)...)
	}
	if one, four := render(1), render(4); !bytes.Equal(one, four) {
		t.Errorf("figures differ between GOMAXPROCS=1 and 4\n1:\n%s4:\n%s", one, four)
	}
}

func renderCSV(t *testing.T, fig Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderTable(t *testing.T, fig Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFigure6RegressionGolden locks the Figure 6 series (measured,
// closed-form and node-cost, both network sizes) to the pre-refactor output.
func TestFigure6RegressionGolden(t *testing.T) {
	for _, network := range []int{10000, 100} {
		res, cost, err := Figure6(network, regressOpts())
		if err != nil {
			t.Fatal(err)
		}
		testutil.Golden(t, res.ID+".csv", renderCSV(t, res))
		testutil.Golden(t, cost.ID+".csv", renderCSV(t, cost))
		// The ASCII table shares the golden treatment (satellite: emitter
		// coverage) on the larger panel only; the CSVs cover the numbers.
		if network == 10000 {
			testutil.Golden(t, res.ID+".table", renderTable(t, res))
		}
	}
}

// TestFigure7RegressionGolden locks one churn panel (alpha = 3).
func TestFigure7RegressionGolden(t *testing.T) {
	fig, err := Figure7(3, regressOpts())
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, fig.ID+".csv", renderCSV(t, fig))
	testutil.Golden(t, fig.ID+".table", renderTable(t, fig))
}

// TestFigure8RegressionGolden locks the key-share cost sweep.
func TestFigure8RegressionGolden(t *testing.T) {
	fig, err := Figure8(regressOpts())
	if err != nil {
		t.Fatal(err)
	}
	testutil.Golden(t, fig.ID+".csv", renderCSV(t, fig))
}
