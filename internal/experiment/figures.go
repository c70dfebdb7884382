package experiment

import (
	"slices"

	"selfemerge/internal/core"
)

// Preset is one figure of the paper's evaluation (Section IV) as a named
// sweep: the malicious rate p from 0 to 0.5 is the X axis, Series is the
// curve axis, and Base holds what the figure keeps fixed. A figure runs on
// the Monte Carlo estimator, which samples each point on one trial worker,
// so its output is a pure function of (trials, step, seed) on any machine.
// A figure's curves are columns of the result: Figure 6's resilience is
// min_r and its required nodes C is cost, Figures 7 and 8 plot r, and the
// closed form is min(pred_rr, pred_rd).
type Preset struct {
	Name string
	// Panels are the paper's panels the sweep draws; fig6a (min_r) and
	// fig6b (cost) are one sweep.
	Panels []string
	Base   Point
	Series Axis
}

// Presets are the paper's figures, in the order `emergesim all` runs them.
var Presets = []Preset{
	// Figure 6: attack resilience and required nodes without churn, in a
	// 10,000-node DHT and in a 100-node one.
	{"fig6-10000", []string{"fig6a", "fig6b"}, Point{Network: 10000},
		SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint)},
	{"fig6-100", []string{"fig6c", "fig6d"}, Point{Network: 100},
		SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint)},
	// Figure 7: combined resilience under churn, T = alpha mean node
	// lifetimes. The paper's panels are alpha = 1, 2, 3 and 5.
	{"fig7", []string{"fig7"}, Point{Network: 10000, Alpha: 3},
		SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint, core.SchemeKeyShare)},
	// Figure 8: key share routing at alpha = 3 when only a budget of the
	// 10,000 nodes may build the share-routing paths.
	{"fig8", []string{"fig8"}, Point{Network: 10000, Alpha: 3, Scheme: core.SchemeKeyShare},
		IntAxis("budget", 100, 1000, 5000, 10000)},
}

// Sweep is the preset's sweep with the p axis at the given grid step.
func (pr Preset) Sweep(step float64) Sweep {
	return Sweep{Name: pr.Name, Base: pr.Base, Axes: []Axis{RangeAxis("p", 0, 0.5, step), pr.Series}}
}

// PresetFor returns the preset that draws the named panel (fig6a, ..., fig8).
func PresetFor(panel string) (Preset, bool) {
	for _, pr := range Presets {
		if slices.Contains(pr.Panels, panel) {
			return pr, true
		}
	}
	return Preset{}, false
}
