// Package churn drives node lifecycle dynamics in the event-driven DHT
// simulation, per Section II-C: permanent departures ("node death") with
// exponentially distributed lifetimes (the decay model of Bhagwan et al.
// the paper adopts). Transient unavailability is a fault profile
// (fault.ProfileFlap), not churn.
package churn

import (
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
)

// Config parameterizes a churn process.
type Config struct {
	// MeanLifetime is the average time until a node permanently leaves.
	// Zero disables deaths.
	MeanLifetime time.Duration
	// Seed seeds the process RNG.
	Seed uint64
}

// Process schedules churn events on a clock. It is not safe for concurrent
// use; drive it from the simulator goroutine.
type Process struct {
	clock sim.Clock
	rng   *stats.RNG
	cfg   Config
}

// New creates a churn process.
func New(clock sim.Clock, cfg Config) *Process {
	return &Process{clock: clock, rng: stats.NewRNG(cfg.Seed), cfg: cfg}
}

// SampleLifetime draws one exponential lifetime.
func (p *Process) SampleLifetime() time.Duration {
	if p.cfg.MeanLifetime <= 0 {
		return 0
	}
	return time.Duration(p.rng.Exp(float64(p.cfg.MeanLifetime)))
}

// ScheduleDeath arranges for die(arg) to run after an exponentially
// distributed lifetime, allocating nothing. It returns the timer (stop it if
// the node is decommissioned by other means) and the sampled lifetime. With
// deaths disabled it returns the inert zero handle and 0, and never calls die.
func (p *Process) ScheduleDeath(die func(any), arg any) (sim.ArgTimer, time.Duration) {
	if p.cfg.MeanLifetime <= 0 {
		return sim.ArgTimer{}, 0
	}
	life := p.SampleLifetime()
	return p.clock.AfterFuncArg(life, die, arg), life
}
