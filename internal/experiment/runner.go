package experiment

import (
	"fmt"
	"time"

	"selfemerge/internal/par"
)

// Runner executes a sweep's points concurrently over a worker pool. Results
// are collected in grid order, so a run's output is identical regardless of
// the worker count; per-point determinism is the estimator's contract.
type Runner struct {
	Estimator Estimator
	// Parallel is the number of points in flight at once (default
	// GOMAXPROCS). Live-scenario points each own a private simulator and
	// network fabric, so a multi-point live sweep scales near-linearly with
	// this.
	Parallel int
}

// ResultSet is the outcome of one sweep run.
type ResultSet struct {
	Sweep     Sweep
	Estimator string
	Results   []Result
	// Elapsed is the wall-clock time of the whole run; PointElapsed sums
	// the per-point wall times (> Elapsed when points ran concurrently).
	Elapsed      time.Duration
	PointElapsed time.Duration
}

// PointChecker is implemented by estimators that can reject a point without
// measuring it; Validate uses it to fail fast on estimator-specific
// parameter mismatches (e.g. a forge rate without the eclipse strategy on
// the live estimator).
type PointChecker interface {
	CheckPoint(Point) error
}

// Validate expands the sweep and pre-flights every point — environment
// validation, plan construction, and the estimator's own point checks —
// without running any estimates. Callers use it to classify parameter
// mistakes as usage errors before committing compute.
func (r Runner) Validate(sw Sweep) error {
	if r.Estimator == nil {
		return fmt.Errorf("experiment: runner has no estimator")
	}
	// A live-only axis under an abstract estimator would emit byte-identical
	// series under distinct labels, even where every value is neutral (which
	// the per-point rejectLiveOnly lets through).
	switch r.Estimator.(type) {
	case Analytic, MonteCarlo:
		for _, ax := range sw.Axes {
			if pa := param(ax.Name); pa != nil && pa.LiveOnly {
				return fmt.Errorf("experiment: the %s estimator does not read %s; the %s axis applies to the live estimator only",
					r.Estimator.Name(), pa.Name, pa.Name)
			}
		}
	}
	points, err := sw.Points()
	if err != nil {
		return err
	}
	checker, _ := r.Estimator.(PointChecker)
	for _, pt := range points {
		if _, err := pt.Plan(); err != nil {
			return fmt.Errorf("experiment: point %d (%s, x=%g): %w", pt.Index, pt.Series, pt.X, err)
		}
		if checker != nil {
			if err := checker.CheckPoint(pt); err != nil {
				return fmt.Errorf("experiment: point %d (%s, x=%g): %w", pt.Index, pt.Series, pt.X, err)
			}
		}
	}
	return nil
}

// Run expands and executes the sweep. A failing point aborts the run: no
// new points start after a failure, in-flight points finish, and the error
// of the earliest failing point (by grid order) is returned.
func (r Runner) Run(sw Sweep) (*ResultSet, error) {
	if r.Estimator == nil {
		return nil, fmt.Errorf("experiment: runner has no estimator")
	}
	points, err := sw.Points()
	if err != nil {
		return nil, err
	}

	began := time.Now() //lint:allow detrand Elapsed is operator-facing wall time, not part of the seeded result
	results := make([]Result, len(points))
	err = par.Do(len(points), r.Parallel, func(i int) (err error) {
		if results[i], err = r.Estimator.Estimate(points[i]); err != nil {
			err = fmt.Errorf("experiment: point %d (%s, x=%g): %w", i, points[i].Series, points[i].X, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{
		Sweep:     sw,
		Estimator: r.Estimator.Name(),
		Results:   results,
		Elapsed:   time.Since(began), //lint:allow detrand wall-time metadata only; every seeded quantity flows from pt.Seed
	}
	for _, res := range results {
		rs.PointElapsed += res.Elapsed
	}
	return rs, nil
}
