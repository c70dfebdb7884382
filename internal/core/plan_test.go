package core

import (
	"testing"
	"time"
)

func TestSchemeString(t *testing.T) {
	tests := []struct {
		s    Scheme
		want string
	}{
		{SchemeCentral, "central"},
		{SchemeDisjoint, "disjoint"},
		{SchemeJoint, "joint"},
		{SchemeKeyShare, "share"},
		{Scheme(99), "Scheme(99)"},
	}
	for _, tc := range tests {
		if got := tc.s.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.s), got, tc.want)
		}
	}
}

func TestParseSchemeRoundTrip(t *testing.T) {
	for _, s := range []Scheme{SchemeCentral, SchemeDisjoint, SchemeJoint, SchemeKeyShare} {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v", s.String(), got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme(bogus) succeeded")
	}
}

func TestPlanCentral(t *testing.T) {
	plan := PlanCentral(0.3)
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.NodesRequired() != 1 {
		t.Errorf("NodesRequired = %d", plan.NodesRequired())
	}
	if plan.Predicted.ReleaseAhead != 0.7 || plan.Predicted.Drop != 0.7 {
		t.Errorf("Predicted = %+v", plan.Predicted)
	}
}

func TestPlanMultipathMeetsTargetCheaply(t *testing.T) {
	plan, err := PlanMultipath(SchemeJoint, 0.2, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := plan.Predicted.Min(); got < 0.999 {
		t.Errorf("joint plan at p=0.2 achieves %v, want >= 0.999", got)
	}
	if plan.NodesRequired() > 500 {
		t.Errorf("joint plan at p=0.2 uses %d nodes; target should be reachable cheaply", plan.NodesRequired())
	}
}

func TestPlanMultipathFallsBackToMaxMin(t *testing.T) {
	// At p=0.45 no shape within 10000 nodes reaches 0.999; the planner must
	// return the best achievable, which the paper shows is still > 0.8 for
	// the joint scheme.
	plan, err := PlanMultipath(SchemeJoint, 0.45, 10000)
	if err != nil {
		t.Fatal(err)
	}
	got := plan.Predicted.Min()
	if got >= 0.999 {
		t.Fatalf("unexpectedly met target at p=0.45: %+v", plan)
	}
	if got < 0.75 {
		t.Errorf("joint max-min at p=0.45 = %v, want > 0.75", got)
	}
	if plan.NodesRequired() > 10000 {
		t.Errorf("plan exceeds budget: %d", plan.NodesRequired())
	}
}

func TestPlanMultipathDisjointDegradesToBaseline(t *testing.T) {
	// Figure 6(a): past p ~ 0.3 the disjoint optimum collapses to (or very
	// near) the centralized baseline.
	plan, err := PlanMultipath(SchemeDisjoint, 0.45, 10000)
	if err != nil {
		t.Fatal(err)
	}
	base := 1 - 0.45
	if got := plan.Predicted.Min(); got < base-1e-9 || got > base+0.05 {
		t.Errorf("disjoint at p=0.45 = %v, want within [baseline, baseline+0.05] = [%v, %v]", got, base, base+0.05)
	}
}

func TestPlanMultipathJointBeatsDisjoint(t *testing.T) {
	for _, p := range []float64{0.1, 0.2, 0.3, 0.4} {
		dj, err := PlanMultipath(SchemeDisjoint, p, 10000)
		if err != nil {
			t.Fatal(err)
		}
		jt, err := PlanMultipath(SchemeJoint, p, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if jt.Predicted.Min() < dj.Predicted.Min()-1e-9 {
			t.Errorf("p=%v: joint %v < disjoint %v", p, jt.Predicted.Min(), dj.Predicted.Min())
		}
	}
}

func TestPlanMultipathRespectsBudget(t *testing.T) {
	for _, budget := range []int{1, 10, 100, 10000} {
		for _, p := range []float64{0.1, 0.3, 0.5} {
			plan, err := PlanMultipath(SchemeJoint, p, budget)
			if err != nil {
				t.Fatal(err)
			}
			if plan.NodesRequired() > budget {
				t.Errorf("budget=%d p=%v: plan uses %d nodes", budget, p, plan.NodesRequired())
			}
		}
	}
}

func TestPlanMultipathRejectsWrongScheme(t *testing.T) {
	if _, err := PlanMultipath(SchemeCentral, 0.2, 10); err == nil {
		t.Error("expected error for central scheme")
	}
	if _, err := PlanMultipath(SchemeKeyShare, 0.2, 10); err == nil {
		t.Error("expected error for share scheme")
	}
	if _, err := PlanMultipath(SchemeJoint, 0.2, 0); err == nil {
		t.Error("expected error for zero budget")
	}
}

func TestPlanKeyShareStructure(t *testing.T) {
	plan, err := PlanKeyShare(0.2, 3, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.L < 2 {
		t.Errorf("share plan needs >= 2 columns, got %d", plan.L)
	}
	if plan.ShareN < plan.K {
		t.Errorf("n=%d < k=%d", plan.ShareN, plan.K)
	}
	if len(plan.ShareM) != plan.L-1 {
		t.Errorf("got %d thresholds for %d columns", len(plan.ShareM), plan.L)
	}
	if plan.NodesRequired() > 10000 {
		t.Errorf("share plan exceeds budget: %d", plan.NodesRequired())
	}
}

func TestPlanKeyShareSmallBudget(t *testing.T) {
	// Figure 8 runs the share scheme down to 100 available nodes.
	plan, err := PlanKeyShare(0.1, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.NodesRequired() > 100 {
		t.Errorf("plan uses %d nodes, budget 100", plan.NodesRequired())
	}
}

func TestPlanKeyShareChurnResilient(t *testing.T) {
	// The paper's headline: at T = 5 lifetimes and p < 0.3 the share scheme
	// retains high predicted resilience.
	plan, err := PlanKeyShare(0.2, 5, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Predicted.Min(); got < 0.9 {
		t.Errorf("share plan resilience %v at alpha=5, want >= 0.9", got)
	}
}

func TestHoldPeriod(t *testing.T) {
	plan := Plan{Scheme: SchemeJoint, K: 2, L: 4}
	if got := plan.HoldPeriod(8 * time.Hour); got != 2*time.Hour {
		t.Errorf("HoldPeriod = %v", got)
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	tests := []struct {
		name string
		plan Plan
	}{
		{"bad scheme", Plan{Scheme: Scheme(9), K: 1, L: 1}},
		{"central wrong shape", Plan{Scheme: SchemeCentral, K: 2, L: 1}},
		{"zero k", Plan{Scheme: SchemeJoint, K: 0, L: 3}},
		{"share n below k", Plan{Scheme: SchemeKeyShare, K: 5, L: 3, ShareN: 2, ShareM: []int{1, 1}}},
		{"share threshold count", Plan{Scheme: SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{1}}},
		{"share threshold range", Plan{Scheme: SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{0, 2}}},
	}
	for _, tc := range tests {
		if err := tc.plan.Validate(); err == nil {
			t.Errorf("%s: Validate passed", tc.name)
		}
	}
}

// TestHoldPeriodEndsAtRelease: l holding periods never end before the
// emerging period T, and overshoot it by less than l nanoseconds.
func TestHoldPeriodEndsAtRelease(t *testing.T) {
	for _, tc := range []struct {
		emerging time.Duration
		l        int
	}{{2 * time.Hour, 2}, {2 * time.Hour, 7}, {time.Hour, 28}, {time.Hour + 1, 3}, {5, 3}, {time.Hour, 0}} {
		hold := Plan{L: tc.l}.HoldPeriod(tc.emerging)
		end := hold * time.Duration(max(tc.l, 1))
		if end < tc.emerging || end-tc.emerging >= time.Duration(max(tc.l, 1)) {
			t.Errorf("T=%v l=%d: %d periods of %v end %v after T", tc.emerging, tc.l, tc.l, hold, end-tc.emerging)
		}
	}
}
