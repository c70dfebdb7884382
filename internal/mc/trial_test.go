package mc

import (
	"math"
	"testing"

	"selfemerge/internal/analytic"
	"selfemerge/internal/core"
	"selfemerge/internal/stats"
)

const testTrials = 20000

// withinCI asserts |got-want| is plausible for a proportion estimated from
// testTrials samples (4-sigma).
func withinCI(t *testing.T, name string, got, want float64) {
	t.Helper()
	sigma := math.Sqrt(want*(1-want)/testTrials) + 1e-9
	if math.Abs(got-want) > 4*sigma+0.005 {
		t.Errorf("%s = %.4f, analytic %.4f (diff %.4f)", name, got, want, math.Abs(got-want))
	}
}

func bigEnv(p float64) Env {
	return Env{Population: 10000, Malicious: int(p * 10000)}
}

func TestCentralMatchesClosedForm(t *testing.T) {
	for _, p := range []float64{0, 0.2, 0.5} {
		res, err := Estimate(core.PlanCentral(p), bigEnv(p), Options{Trials: testTrials, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		withinCI(t, "central Rr", res.Rr(), 1-p)
		withinCI(t, "central Rd", res.Rd(), 1-p)
	}
}

func TestDisjointMatchesEquations1And2(t *testing.T) {
	plan := core.Plan{Scheme: core.SchemeDisjoint, K: 2, L: 3}
	for _, p := range []float64{0.1, 0.2, 0.35} {
		res, err := Estimate(plan, bigEnv(p), Options{Trials: testTrials, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		withinCI(t, "disjoint Rr", res.Rr(), analytic.DisjointRr(p, 2, 3))
		withinCI(t, "disjoint Rd", res.Rd(), analytic.DisjointRd(p, 2, 3))
	}
}

func TestJointMatchesEquations1And3(t *testing.T) {
	plan := core.Plan{Scheme: core.SchemeJoint, K: 3, L: 4}
	for _, p := range []float64{0.1, 0.3, 0.45} {
		res, err := Estimate(plan, bigEnv(p), Options{Trials: testTrials, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		withinCI(t, "joint Rr", res.Rr(), analytic.JointRr(p, 3, 4))
		withinCI(t, "joint Rd", res.Rd(), analytic.JointRd(p, 3, 4))
	}
}

func sharePlan(k, l, n int, m int) core.Plan {
	ms := make([]int, l-1)
	for i := range ms {
		ms[i] = m
	}
	return core.Plan{Scheme: core.SchemeKeyShare, K: k, L: l, ShareN: n, ShareM: ms}
}

func TestShareNoAdversaryNoChurn(t *testing.T) {
	res, err := Estimate(sharePlan(2, 4, 6, 3), Env{Population: 10000}, Options{Trials: 2000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rd() != 1 {
		t.Errorf("share Rd = %v with no adversary/churn, want 1", res.Rd())
	}
	if res.Rr() != 1 {
		t.Errorf("share Rr = %v with no adversary, want 1", res.Rr())
	}
}

func TestShareReleaseNeedsThresholdEverywhere(t *testing.T) {
	// With m = n, release-ahead requires every carrier of every column to be
	// malicious: at p=0.5 in a huge network this is ~(1/2)^(n*(l-1)) — far
	// below the single-column probability, so Rr should be ~1.
	res, err := Estimate(sharePlan(2, 3, 8, 8), bigEnv(0.5), Options{Trials: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rr() < 0.99 {
		t.Errorf("share Rr = %v with m=n=8 at p=0.5, want ~1", res.Rr())
	}
}

func TestShareDropEasierWithHighThreshold(t *testing.T) {
	// m = n also means a single withheld share per column kills delivery, so
	// Rd should be much lower than with m = 1.
	strict, err := Estimate(sharePlan(2, 3, 8, 8), bigEnv(0.3), Options{Trials: 5000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	loose, err := Estimate(sharePlan(2, 3, 8, 1), bigEnv(0.3), Options{Trials: 5000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Rd() >= loose.Rd() {
		t.Errorf("Rd(m=n)=%v should be below Rd(m=1)=%v", strict.Rd(), loose.Rd())
	}
}

func TestCentralChurnSurvival(t *testing.T) {
	// Under churn the central holder must survive T = alpha lifetimes:
	// Rd = (1-p) * exp(-alpha).
	p, alpha := 0.2, 1.0
	env := bigEnv(p)
	env.Alpha = alpha
	res, err := Estimate(core.PlanCentral(p), env, Options{Trials: testTrials, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	withinCI(t, "central churn Rd", res.Rd(), (1-p)*math.Exp(-alpha))
	withinCI(t, "central churn Rr", res.Rr(), 1-p)
}

func TestChurnDegradesMultipathReleaseResilience(t *testing.T) {
	// Replacement draws add key-exposure opportunities, so Rr under churn
	// must be no better than without churn (Section II-C).
	plan := core.Plan{Scheme: core.SchemeJoint, K: 3, L: 4}
	p := 0.25
	noChurn, err := Estimate(plan, bigEnv(p), Options{Trials: testTrials, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	env := bigEnv(p)
	env.Alpha = 3
	churned, err := Estimate(plan, env, Options{Trials: testTrials, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if churned.Rr() > noChurn.Rr()+0.02 {
		t.Errorf("churn improved Rr: %v > %v", churned.Rr(), noChurn.Rr())
	}
	if churned.Rd() > noChurn.Rd()+0.02 {
		t.Errorf("churn improved Rd: %v > %v", churned.Rd(), noChurn.Rd())
	}
}

func TestShareBeatsJointUnderHeavyChurn(t *testing.T) {
	// The paper's central claim (Figure 7): at T = 3 lifetimes and p = 0.2,
	// planned share routing retains far higher combined resilience than the
	// planned joint scheme.
	const p, alpha = 0.2, 3.0
	const budget = 10000
	joint, err := core.PlanMultipath(core.SchemeJoint, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	share, err := core.PlanKeyShare(p, alpha, budget)
	if err != nil {
		t.Fatal(err)
	}
	env := bigEnv(p)
	env.Alpha = alpha
	jr, err := Estimate(joint, env, Options{Trials: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Estimate(share, env, Options{Trials: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if sr.R() < jr.R()+0.1 {
		t.Errorf("share R=%v should clearly beat joint R=%v under churn", sr.R(), jr.R())
	}
	if sr.R() < 0.8 {
		t.Errorf("share R=%v at alpha=3 p=0.2, want >= 0.8", sr.R())
	}
}

func TestEstimateDeterminism(t *testing.T) {
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 3}
	env := bigEnv(0.3)
	env.Alpha = 2
	opts := Options{Trials: 3000, Seed: 42, Workers: 4}
	a, err := Estimate(plan, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(plan, env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed produced different results: %+v vs %+v", a, b)
	}
}

func TestEstimateValidation(t *testing.T) {
	plan := core.PlanCentral(0.1)
	if _, err := Estimate(plan, Env{Population: 0}, Options{}); err == nil {
		t.Error("population 0 accepted")
	}
	if _, err := Estimate(plan, Env{Population: 10, Malicious: 11}, Options{}); err == nil {
		t.Error("malicious > population accepted")
	}
	if _, err := Estimate(plan, Env{Population: 10, Alpha: -1}, Options{}); err == nil {
		t.Error("negative alpha accepted")
	}
	bad := core.Plan{Scheme: core.SchemeJoint, K: 0, L: 2}
	if _, err := Estimate(bad, Env{Population: 10}, Options{}); err == nil {
		t.Error("invalid plan accepted")
	}
}

func TestFinitePopulationEffect(t *testing.T) {
	// In a 100-node network using all 100 nodes, exactly 30 of the holders
	// are malicious — never more. With a plan consuming the whole network, a
	// column of k=10 has at most 30 malicious members in total; compare
	// against the binomial world where all columns could be fully malicious.
	plan := core.Plan{Scheme: core.SchemeJoint, K: 10, L: 10}
	small := Env{Population: 100, Malicious: 30}
	res, err := Estimate(plan, small, Options{Trials: 5000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Drop needs one fully-malicious column (10 malicious in one column):
	// with only 30 marked nodes across 100 slots this is rare but possible;
	// just assert outcome probabilities are sane and Rr+Rd bounded.
	if res.Rr() < 0 || res.Rr() > 1 || res.Rd() < 0 || res.Rd() > 1 {
		t.Errorf("resilience out of range: %+v", res)
	}
}

func TestRunTrialDirect(t *testing.T) {
	rng := stats.NewRNG(99)
	out := RunTrial(core.PlanCentral(0), Env{Population: 10}, rng)
	if out.Released || !out.Delivered {
		t.Errorf("central with no adversary: %+v", out)
	}
	outAllMal := RunTrial(core.PlanCentral(1), Env{Population: 10, Malicious: 10}, rng)
	if !outAllMal.Released || outAllMal.Delivered {
		t.Errorf("central with full adversary: %+v", outAllMal)
	}
}

func TestResultAccessors(t *testing.T) {
	r := Result{Trials: 100, Released: 20, Delivered: 90, Succeeded: 75}
	if r.Rr() != 0.8 {
		t.Errorf("Rr = %v", r.Rr())
	}
	if r.Rd() != 0.9 {
		t.Errorf("Rd = %v", r.Rd())
	}
	if r.R() != 0.75 {
		t.Errorf("R = %v", r.R())
	}
	if r.MinR() != 0.8 {
		t.Errorf("MinR = %v", r.MinR())
	}
	lo, hi := r.ReleaseCI()
	if lo >= 0.2 || hi <= 0.2 {
		t.Errorf("ReleaseCI [%v,%v] misses 0.2", lo, hi)
	}
	var zero Result
	if zero.Rr() != 1 || zero.Rd() != 0 || zero.R() != 0 {
		t.Errorf("zero result accessors: %v %v %v", zero.Rr(), zero.Rd(), zero.R())
	}
}
