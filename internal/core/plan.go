package core

import (
	"fmt"
	"math"
	"time"

	"selfemerge/internal/analytic"
)

// Plan is a fully-sized routing scheme: which scheme to run, the path shape
// (k replicated paths of l holder columns), and — for the key share scheme —
// the per-column Shamir thresholds. A Plan is what the sender needs to build
// a Topology, generate packages and dispatch them into the DHT.
type Plan struct {
	Scheme Scheme
	K      int // replication factor: number of (main) paths
	L      int // path length: number of holder columns

	// ShareN is the number of share carriers per column (key share scheme
	// only); ShareM[j] is the Shamir threshold protecting the column j+1 key
	// for j in [0, L-1). ShareM[0] corresponds to column 2: the first
	// column's keys are delivered directly and have no threshold.
	ShareN int
	ShareM []int

	// Predicted holds the closed-form no-churn resilience of the plan
	// (Equations (1)-(3), or Algorithm 1 for the key share scheme).
	Predicted analytic.Resilience
}

// NodesRequired returns the number of distinct DHT nodes the plan consumes —
// the quantity plotted as C in Figure 6(b)/(d).
func (p Plan) NodesRequired() int {
	switch p.Scheme {
	case SchemeCentral:
		return 1
	case SchemeDisjoint, SchemeJoint:
		return p.K * p.L
	case SchemeKeyShare:
		// Resources are assigned uniformly along the paths (Algorithm 1
		// line 1): every column, terminal included, holds ShareN carriers.
		return p.ShareN * p.L
	default:
		return 0
	}
}

// HoldPeriod returns th = T/l, the per-hop holding period that makes the
// whole route take the emerging period T. It rounds up to the nanosecond:
// the last holder sends at the end of the l-th period, so periods rounded
// down would hand over a key up to l−1 ns before its release.
func (p Plan) HoldPeriod(emergingPeriod time.Duration) time.Duration {
	if p.L <= 0 {
		return emergingPeriod
	}
	l := time.Duration(p.L)
	hold := emergingPeriod / l
	if hold*l < emergingPeriod {
		hold++
	}
	return hold
}

// Validate checks structural invariants.
func (p Plan) Validate() error {
	if !p.Scheme.Valid() {
		return fmt.Errorf("core: invalid scheme %d", int(p.Scheme))
	}
	if p.Scheme == SchemeCentral {
		if p.K != 1 || p.L != 1 {
			return fmt.Errorf("core: central plan must be 1x1, got %dx%d", p.K, p.L)
		}
		return nil
	}
	if p.K < 1 || p.L < 1 {
		return fmt.Errorf("core: plan shape %dx%d invalid", p.K, p.L)
	}
	if p.Scheme == SchemeKeyShare {
		if p.ShareN < p.K {
			return fmt.Errorf("core: share plan has n=%d < k=%d", p.ShareN, p.K)
		}
		if len(p.ShareM) != p.L-1 {
			return fmt.Errorf("core: share plan has %d thresholds, want %d", len(p.ShareM), p.L-1)
		}
		for i, m := range p.ShareM {
			if m < 1 || m > p.ShareN {
				return fmt.Errorf("core: threshold m[%d]=%d outside [1,%d]", i, m, p.ShareN)
			}
		}
	}
	return nil
}

// The planners' search bounds. Every plan of this tree is sized under them;
// only the node budget varies, and it is an argument.
const (
	// targetR is the resilience the sender asks for. PlanMultipath returns the
	// cheapest shape whose min(Rr, Rd) meets it; when no shape within the
	// budget does, it returns the best-achievable (max-min) shape — this is
	// what bends the curves of Figure 6(a) downward and drives the node cost
	// of Figure 6(b) toward the budget as p grows.
	targetR = 0.999
	// maxK caps the multipath replication factor search: Rr decays in k, so
	// optima stay far below it. The path length is capped by the budget.
	maxK = 64
	// shareMaxK and shareMaxL cap the key share scheme's own shape search.
	// Long share paths are counter-productive: every extra column both
	// divides the share budget (n = N/l) and adds one more Shamir threshold
	// that must hold, so the search stays small; the paper's examples use
	// l = 3.
	shareMaxK = 12
	shareMaxL = 8
)

// PlanCentral returns the trivial single-node plan.
func PlanCentral(p float64) Plan {
	r, _ := ClosedForm(SchemeCentral, p, 1, 1)
	return Plan{Scheme: SchemeCentral, K: 1, L: 1, Predicted: r}
}

// ClosedForm is the one choice of a shape's no-churn closed form: Equation
// (1) for the centralized scheme, (2) and (3) for the disjoint and joint
// multipath schemes. It reports false for the key share scheme, which has
// none for a given shape: only Algorithm 1 predicts, for the shapes it sizes.
func ClosedForm(scheme Scheme, p float64, k, l int) (analytic.Resilience, bool) {
	switch scheme {
	case SchemeCentral:
		return analytic.Central(p), true
	case SchemeDisjoint:
		return analytic.Disjoint(p, k, l), true
	case SchemeJoint:
		return analytic.Joint(p, k, l), true
	}
	return analytic.Resilience{}, false
}

// PlanMultipath sizes a node-disjoint or node-joint multipath scheme for
// malicious rate p within a budget of DHT nodes (the "available nodes" N of
// Figures 6 and 8): the cheapest (k, l) whose min(Rr, Rd) reaches targetR,
// or the max-min shape within budget when the target is
// unreachable (Section III-B: "the sender can apply equations 1 and 2 to
// calculate k and l ... for her expected attack resilience").
func PlanMultipath(scheme Scheme, p float64, budget int) (Plan, error) {
	if scheme != SchemeDisjoint && scheme != SchemeJoint {
		return Plan{}, fmt.Errorf("core: PlanMultipath does not size %v", scheme)
	}
	if budget < 1 {
		return Plan{}, fmt.Errorf("core: node budget %d must be >= 1", budget)
	}

	shape := func(k, l int) Plan {
		r, _ := ClosedForm(scheme, p, k, l)
		return Plan{Scheme: scheme, K: k, L: l, Predicted: r}
	}
	var (
		// Cheapest shape meeting the target.
		hit     Plan
		hitCost int
		// Best-achievable fallback.
		best      = shape(1, 1)
		bestScore = best.Predicted.Min()
		bestCost  = 1
	)
	for l := 1; l <= budget; l++ {
		for k := 1; k <= min(budget/l, maxK); k++ {
			cand := shape(k, l)
			score := cand.Predicted.Min()
			cost := k * l
			if score >= targetR && (hitCost == 0 || cost < hitCost) {
				hit = cand
				hitCost = cost
			}
			if score > bestScore+1e-12 || (score > bestScore-1e-12 && cost < bestCost) {
				best = cand
				bestScore = score
				bestCost = cost
			}
		}
	}
	if hitCost != 0 {
		return hit, nil
	}
	return best, nil
}

// PlanKeyShare sizes the key share routing scheme for churn severity alpha,
// the emerging period in mean node lifetimes (T/lifetime: only the ratio
// matters), within a budget of DHT nodes. For every candidate shape (k paths,
// l columns) within the share-search bounds it runs Algorithm 1 to pick the
// per-column Shamir thresholds and predict Rr/Rd, corrects the drop
// prediction for the entry column (the main onion enters on only k holders,
// each of which must survive one holding period — a churn term Algorithm 1's
// recurrence leaves out), and keeps the max-min shape.
//
// Unlike the multipath planner there is no cheapest-cost notion: Algorithm 1
// line 1 always spreads the full node budget uniformly along the columns
// (n = floor(N/l)), matching Figure 8 where the budget itself is the
// independent variable.
func PlanKeyShare(p, alpha float64, budget int) (Plan, error) {
	if budget < 2 {
		return Plan{}, fmt.Errorf("core: budget %d cannot host a share topology", budget)
	}
	if !(alpha > 0) {
		return Plan{}, fmt.Errorf("core: churn severity %v must be positive", alpha)
	}

	var (
		best      Plan
		bestScore = -1.0
	)
	for l := 2; l <= min(shareMaxL, budget/2); l++ {
		n := budget / l
		for k := 1; k <= min(shareMaxK, n); k++ {
			ks, err := analytic.PlanKeyShare(analytic.KeyShareInput{
				K:      k,
				L:      l,
				N:      budget,
				T:      alpha,
				Lambda: 1,
				P:      p,
			})
			if err != nil {
				return Plan{}, fmt.Errorf("core: sizing share thresholds: %w", err)
			}
			// Entry correction: the main onion must clear column 1, which
			// requires one of the k main holders to be honest and survive
			// the first holding period.
			perHolderLoss := p + (1-p)*ks.PDead
			entry := 1 - math.Pow(perHolderLoss, float64(k))
			adjusted := analytic.Resilience{
				ReleaseAhead: ks.Result.ReleaseAhead,
				Drop:         ks.Result.Drop * entry,
			}
			score := adjusted.Min()
			if score > bestScore+1e-12 {
				thresholds := make([]int, 0, l-1)
				for _, col := range ks.Columns[1:] {
					thresholds = append(thresholds, col.M)
				}
				best = Plan{
					Scheme:    SchemeKeyShare,
					K:         k,
					L:         l,
					ShareN:    ks.SharesN,
					ShareM:    thresholds,
					Predicted: adjusted,
				}
				bestScore = score
			}
		}
	}
	if bestScore < 0 {
		return Plan{}, fmt.Errorf("core: no feasible share topology within budget %d", budget)
	}
	if err := best.Validate(); err != nil {
		return Plan{}, err
	}
	return best, nil
}
