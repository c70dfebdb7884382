package mc

import (
	"fmt"

	"selfemerge/internal/core"
	"selfemerge/internal/par"
	"selfemerge/internal/stats"
)

// Result aggregates trial outcomes for one experiment point.
type Result struct {
	Trials    int
	Released  int // trials where the release-ahead attack succeeded
	Delivered int // trials where the key emerged at tr
	Succeeded int // trials with neither early release nor delivery failure
}

// Rr is the measured release-ahead attack resilience (1 - attack success
// rate), the quantity of Equation (1).
func (r Result) Rr() float64 { return 1 - ratio(r.Released, r.Trials) }

// Rd is the measured drop/loss resilience: the probability the key emerged
// at tr despite malicious holders and churn.
func (r Result) Rd() float64 { return ratio(r.Delivered, r.Trials) }

// R is the combined resilience P[delivered and not stolen] — the single
// curve plotted per scheme in Figures 7 and 8.
func (r Result) R() float64 { return ratio(r.Succeeded, r.Trials) }

// MinR returns min(Rr, Rd), matching Figure 6's convention of plotting
// R = Rr = Rd for plans tuned to balance the two.
func (r Result) MinR() float64 {
	if rr := r.Rr(); rr < r.Rd() {
		return rr
	}
	return r.Rd()
}

// ReleaseCI returns the 95% Wilson interval for the release-ahead success
// probability.
func (r Result) ReleaseCI() (lo, hi float64) {
	var p stats.Proportion
	p.AddN(r.Released, r.Trials)
	return p.Wilson95()
}

// DeliverCI returns the 95% Wilson interval for the delivery probability.
func (r Result) DeliverCI() (lo, hi float64) {
	var p stats.Proportion
	p.AddN(r.Delivered, r.Trials)
	return p.Wilson95()
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Options tunes an estimation run. The zero value is completed by defaults
// matching the paper (1000 trials) on one worker, so a default estimate reads
// the same on every machine.
type Options struct {
	Trials  int    // default 1000, the paper's repetition count
	Seed    uint64 // base seed; same seed => identical result
	Workers int    // default 1; more split the trials over one RNG stream each
}

func (o Options) withDefaults() Options {
	if o.Trials == 0 {
		o.Trials = 1000
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	return o
}

// Estimate runs opts.Trials independent trials of plan in env and aggregates
// the outcomes. Trials are distributed over opts.Workers goroutines; the
// result is deterministic for a fixed (plan, env, Trials, Seed, Workers).
func Estimate(plan core.Plan, env Env, opts Options) (Result, error) {
	if err := plan.Validate(); err != nil {
		return Result{}, fmt.Errorf("mc: invalid plan: %w", err)
	}
	if err := env.Validate(); err != nil {
		return Result{}, err
	}
	opts = opts.withDefaults()
	if opts.Trials < 1 {
		return Result{}, fmt.Errorf("mc: trials %d must be >= 1", opts.Trials)
	}
	if opts.Workers < 1 {
		return Result{}, fmt.Errorf("mc: workers %d must be >= 1", opts.Workers)
	}

	root := stats.NewRNG(opts.Seed)
	workers := min(opts.Workers, opts.Trials)
	// Pre-split one RNG per worker from the root stream so the partition of
	// trials across workers does not change the sampled randomness layout
	// within a worker.
	rngs := make([]*stats.RNG, workers)
	for i := range rngs {
		rngs[i] = root.Split()
	}

	results := make([]Result, workers)
	// Worker w runs its share of the trials on rngs[w]; a trial cannot fail.
	_ = par.Do(workers, workers, func(w int) error {
		share := opts.Trials / workers
		if w < opts.Trials%workers {
			share++
		}
		acc := &results[w]
		for t := 0; t < share; t++ {
			out := RunTrial(plan, env, rngs[w])
			acc.Trials++
			if out.Released {
				acc.Released++
			}
			if out.Delivered {
				acc.Delivered++
			}
			if !out.Released && out.Delivered {
				acc.Succeeded++
			}
		}
		return nil
	})

	var total Result
	for _, r := range results {
		total.Trials += r.Trials
		total.Released += r.Released
		total.Delivered += r.Delivered
		total.Succeeded += r.Succeeded
	}
	return total, nil
}
