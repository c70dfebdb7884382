package core

import (
	"fmt"
	"math"
)

// PlanSpec is the one canonical plan-from-parameters builder: it describes a
// routing plan either by explicit shape (K and L set, as the emergesim
// scenario/sweep flags do) or by planner sizing under a node budget (as the
// figure sweeps do). The experiment estimators and cmd/emergesim build their
// plans through it.
type PlanSpec struct {
	Scheme Scheme
	// P is the malicious rate the planner sizes against; it also drives the
	// closed-form prediction attached to explicit shapes.
	P float64
	// Alpha is the churn severity T/lifetime used by the key share scheme's
	// Algorithm 1 (non-positive defaults to 1, the mild-churn setting).
	Alpha float64
	// Budget caps how many DHT nodes a planner-sized plan may consume.
	Budget int
	// K and L, when both zero, ask the planner to size the shape; otherwise
	// they fix it explicitly. ShareN/ShareM complete an explicit key share
	// shape.
	K, L   int
	ShareN int
	ShareM []int
}

// Plan builds the plan the spec describes.
func (s PlanSpec) Plan() (Plan, error) {
	// The closed forms panic outside the unit interval; reject early so CLI
	// flag typos surface as errors, not panics.
	if s.P < 0 || s.P > 1 || math.IsNaN(s.P) {
		return Plan{}, fmt.Errorf("core: malicious rate %v outside [0,1]", s.P)
	}
	if s.K != 0 || s.L != 0 {
		return s.explicit()
	}
	return s.sized()
}

// explicit assembles a fixed-shape plan, attaching the no-churn closed-form
// prediction where one exists.
func (s PlanSpec) explicit() (Plan, error) {
	plan := Plan{Scheme: s.Scheme, K: s.K, L: s.L}
	switch s.Scheme {
	case SchemeCentral:
		plan = PlanCentral(s.P)
	case SchemeKeyShare:
		plan.ShareN, plan.ShareM = s.ShareN, s.ShareM
	case SchemeDisjoint, SchemeJoint:
		plan.Predicted, _ = ClosedForm(s.Scheme, s.P, s.K, s.L)
	default:
		return Plan{}, fmt.Errorf("core: unknown scheme %v", s.Scheme)
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// sized runs the scheme's planner.
func (s PlanSpec) sized() (Plan, error) {
	switch s.Scheme {
	case SchemeCentral:
		return PlanCentral(s.P), nil
	case SchemeDisjoint, SchemeJoint:
		return PlanMultipath(s.Scheme, s.P, s.Budget)
	case SchemeKeyShare:
		alpha := s.Alpha
		if alpha <= 0 {
			alpha = 1
		}
		return PlanKeyShare(s.P, alpha, s.Budget)
	default:
		return Plan{}, fmt.Errorf("core: unknown scheme %v", s.Scheme)
	}
}
