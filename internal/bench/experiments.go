package bench

import (
	"fmt"

	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
)

// Options tunes the experiment sweeps. The zero value reproduces the paper's
// setup: 1000 trials per point, malicious rate swept from 0 to 0.5.
type Options struct {
	Trials int     // Monte Carlo trials per point; default 1000
	Seed   uint64  // base RNG seed
	PStep  float64 // malicious-rate grid step; default 0.02
	// IncludePredicted appends the closed-form (Equations (1)-(3),
	// Algorithm 1) curves next to the measured ones, labelled "<scheme>/eq".
	IncludePredicted bool
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 1000
	}
	if o.PStep == 0 {
		o.PStep = 0.02
	}
	return o
}

// runner builds the shared experiment runner every figure sweep executes on:
// points in parallel, each on one trial worker, so a figure is a pure
// function of (trials, step, seed) on any machine.
func (o Options) runner() experiment.Runner {
	return experiment.Runner{Estimator: experiment.MonteCarlo{Trials: o.Trials}}
}

// pAxis is the malicious-rate X axis common to every figure: 0 to 0.5.
func (o Options) pAxis() experiment.Axis {
	return experiment.RangeAxis("p", 0, 0.5, o.PStep)
}

// seriesOf projects one sweep series onto a figure curve via y.
func seriesOf(label string, results []experiment.Result, y func(experiment.Result) float64) Series {
	s := Series{Label: label}
	for _, r := range results {
		s.Points = append(s.Points, Point{X: r.Point.X, Y: y(r)})
	}
	return s
}

// Figure6 reproduces Figure 6: attack resilience (panel a/c) and required
// nodes C (panel b/d) versus malicious rate p for the centralized,
// node-disjoint and node-joint schemes, in a DHT of the given network size
// (10,000 for panels a-b, 100 for panels c-d). No churn.
func Figure6(network int, opts Options) (resilience, cost Figure, err error) {
	opts = opts.withDefaults()
	rs, err := opts.runner().Run(experiment.Sweep{
		Name: fmt.Sprintf("fig6-%d", network),
		Seed: opts.Seed,
		Base: experiment.Point{Network: network},
		Axes: []experiment.Axis{
			opts.pAxis(),
			experiment.SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint),
		},
	})
	if err != nil {
		return Figure{}, Figure{}, err
	}

	resilience = Figure{
		ID:     fmt.Sprintf("fig6-resilience-%d", network),
		Title:  fmt.Sprintf("attack resilience, %d nodes", network),
		XLabel: "p",
		YLabel: "R",
	}
	cost = Figure{
		ID:     fmt.Sprintf("fig6-cost-%d", network),
		Title:  fmt.Sprintf("required nodes, %d nodes", network),
		XLabel: "p",
		YLabel: "C",
	}
	for _, series := range rs.SeriesResults() {
		label := series[0].Point.Series
		resilience.Series = append(resilience.Series, seriesOf(label, series, experiment.Result.MinR))
		cost.Series = append(cost.Series, seriesOf(label, series, func(r experiment.Result) float64 {
			return float64(r.Cost)
		}))
		if opts.IncludePredicted {
			resilience.Series = append(resilience.Series, seriesOf(label+"/eq", series,
				func(r experiment.Result) float64 { return r.Predicted.Min() }))
		}
	}
	return resilience, cost, nil
}

// Figure7 reproduces one panel of Figure 7: combined resilience R versus p
// under churn, with the emerging period T equal to alpha mean node
// lifetimes, for all four schemes in a 10,000-node DHT.
func Figure7(alpha float64, opts Options) (Figure, error) {
	opts = opts.withDefaults()
	rs, err := opts.runner().Run(experiment.Sweep{
		Name: fmt.Sprintf("fig7-alpha%g", alpha),
		Seed: opts.Seed,
		Base: experiment.Point{Network: 10000, Alpha: alpha},
		Axes: []experiment.Axis{
			opts.pAxis(),
			experiment.SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint, core.SchemeKeyShare),
		},
	})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     fmt.Sprintf("fig7-alpha%g", alpha),
		Title:  fmt.Sprintf("churn resilience, alpha = %g", alpha),
		XLabel: "p",
		YLabel: "R",
	}
	for _, series := range rs.SeriesResults() {
		fig.Series = append(fig.Series, seriesOf(series[0].Point.Series, series,
			func(r experiment.Result) float64 { return r.R }))
	}
	return fig, nil
}

// Figure8 reproduces Figure 8: combined resilience of the key share routing
// scheme at alpha = 3 versus p, when only 100 / 1000 / 5000 / 10000 of the
// 10,000 DHT nodes are available to construct the share-routing paths.
func Figure8(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	rs, err := opts.runner().Run(experiment.Sweep{
		Name: "fig8",
		Seed: opts.Seed,
		Base: experiment.Point{Network: 10000, Alpha: 3, Scheme: core.SchemeKeyShare},
		Axes: []experiment.Axis{
			opts.pAxis(),
			experiment.IntAxis("budget", 100, 1000, 5000, 10000),
		},
	})
	if err != nil {
		return Figure{}, err
	}
	fig := Figure{
		ID:     "fig8",
		Title:  "key share routing cost (alpha = 3)",
		XLabel: "p",
		YLabel: "R",
	}
	for _, series := range rs.SeriesResults() {
		fig.Series = append(fig.Series, seriesOf(series[0].Point.Series, series,
			func(r experiment.Result) float64 { return r.R }))
	}
	return fig, nil
}
