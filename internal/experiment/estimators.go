package experiment

import (
	"fmt"
	"time"

	"selfemerge/internal/analytic"
	"selfemerge/internal/core"
	"selfemerge/internal/mc"
)

// Analytic estimates points from the closed forms: Equations (1)-(3) for the
// centralized and multipath schemes, Algorithm 1 (plus the entry-column
// churn correction) for planner-sized key share shapes. It is exact and
// instantaneous, and ignores the point's seed.
type Analytic struct{}

// Name implements Estimator.
func (Analytic) Name() string { return "analytic" }

// checkPlan validates the point for closed-form estimation and builds its
// plan, shared by CheckPoint and Estimate so the planner search runs once.
func (a Analytic) checkPlan(pt Point) (core.Plan, error) {
	if err := pt.Validate(); err != nil {
		return core.Plan{}, err
	}
	if err := rejectLiveOnly(pt, a.Name()); err != nil {
		return core.Plan{}, err
	}
	// Equations (1)-(3) are no-churn; only the key share scheme's Algorithm
	// 1 consumes alpha. Accepting an alpha axis for the other schemes would
	// emit identical series under distinct labels.
	if pt.Alpha > 0 && pt.Scheme != core.SchemeKeyShare {
		return core.Plan{}, fmt.Errorf("experiment: the closed forms for %v are no-churn; the alpha axis applies to the mc and live estimators", pt.Scheme)
	}
	plan, err := pt.Plan()
	if err != nil {
		return core.Plan{}, err
	}
	// Explicit key share shapes carry no closed form (Algorithm 1 sizes
	// shapes, it does not evaluate given thresholds); reject at pre-flight
	// so Runner.Validate fails before any compute runs.
	if plan.Predicted == (analytic.Resilience{}) {
		return core.Plan{}, fmt.Errorf("experiment: no closed form for %v shape %dx%d", plan.Scheme, plan.K, plan.L)
	}
	return plan, nil
}

// CheckPoint implements PointChecker.
func (a Analytic) CheckPoint(pt Point) error {
	_, err := a.checkPlan(pt)
	return err
}

// Estimate implements Estimator.
func (a Analytic) Estimate(pt Point) (Result, error) {
	began := time.Now() //lint:allow detrand Elapsed is operator-facing wall time, not part of the seeded result
	plan, err := a.checkPlan(pt)
	if err != nil {
		return Result{}, err
	}
	pred := plan.Predicted
	return Result{
		Point:     pt,
		Plan:      plan,
		Rr:        pred.ReleaseAhead,
		Rd:        pred.Drop,
		R:         pred.Min(),
		Cost:      plan.NodesRequired(),
		Predicted: pred,
		Elapsed:   time.Since(began), //lint:allow detrand wall-time metadata only; every seeded quantity flows from pt.Seed
	}, nil
}

// MonteCarlo estimates points by sampling the abstract model
// (mc.Estimate): the engine behind Figures 6-8. The zero value matches the
// paper's setup (1000 trials). A point is sampled on one trial worker — the
// Runner parallelizes across points — because mc.Estimate splits one RNG per
// worker: a wider partition would make the estimate depend on the machine.
type MonteCarlo struct {
	// Trials per point (default 1000).
	Trials int
	// ShareModel pins the key share scheme's churn-loss and
	// release-exposure model (the mc.Env knob): the paper's quota model by
	// default, or the live-faithful chained model the scenario estimator
	// cross-validates against.
	ShareModel mc.ShareModel
}

// Name implements Estimator.
func (MonteCarlo) Name() string { return "mc" }

// CheckPoint implements PointChecker.
func (m MonteCarlo) CheckPoint(pt Point) error {
	if err := pt.Validate(); err != nil {
		return err
	}
	return rejectLiveOnly(pt, m.Name())
}

// Estimate implements Estimator.
func (m MonteCarlo) Estimate(pt Point) (Result, error) {
	began := time.Now() //lint:allow detrand Elapsed is operator-facing wall time, not part of the seeded result
	if err := m.CheckPoint(pt); err != nil {
		return Result{}, err
	}
	plan, err := pt.Plan()
	if err != nil {
		return Result{}, err
	}
	env := pt.Env()
	env.ShareModel = m.ShareModel
	res, err := mc.Estimate(plan, env, mc.Options{Trials: m.Trials, Seed: pt.Seed, Workers: 1})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Point:     pt,
		Plan:      plan,
		Samples:   res.Trials,
		Released:  res.Released,
		Delivered: res.Delivered,
		Succeeded: res.Succeeded,
		Rr:        res.Rr(),
		Rd:        res.Rd(),
		R:         res.R(),
		Cost:      plan.NodesRequired(),
		Predicted: plan.Predicted,
		Elapsed:   time.Since(began), //lint:allow detrand wall-time metadata only; every seeded quantity flows from pt.Seed
	}, nil
}
