// Package experiment is the unified parallel experiment engine behind the
// paper's evaluation: one sweep abstraction over the three ways this
// repository measures a resilience point — the closed-form equations
// (internal/analytic), the sampled Monte Carlo model (internal/mc), and the
// live protocol stack (internal/scenario).
//
// A Sweep declares axes (malicious rate p, churn severity alpha, network
// size, scheme, shape, node budget, replicas, attack kind) over a base
// Point; it expands to a deterministic per-point-seeded grid. An Estimator
// measures one Point; a Runner executes a sweep's points concurrently over a
// worker pool and collects the Results in grid order, so the output is
// byte-identical regardless of worker count. Live-scenario points each build
// a private simulator and network fabric, which is what lets a full live
// figure curve saturate every core instead of serializing one-at-a-time
// runs.
//
// The figure generators of internal/bench are thin declarative sweep specs
// on this runner, and cmd/emergesim's sweep subcommand exposes it on the
// command line.
package experiment

import (
	"fmt"
	"math"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/analytic"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
	"selfemerge/internal/mc"
)

// Point is one fully-specified experiment point of a sweep grid: the scheme
// shape parameters, the environment, and the seed that makes the point's
// measurement reproducible. Every sweepable field has one row in Params.
type Point struct {
	Scheme core.Scheme
	// P is the malicious (Sybil) rate.
	P float64
	// Alpha is the churn severity T/lifetime; zero disables churn.
	Alpha float64
	// Network is the DHT population N.
	Network int
	// Budget caps the nodes a planner-sized plan may consume (0 => Network).
	Budget int
	// K and L fix the plan shape explicitly; both zero lets the planner size
	// it. ShareN/ShareM complete an explicit key share shape.
	K, L   int
	ShareN int
	ShareM []int
	// Replicas is the per-packet replica count for live estimation (0 => the
	// estimator's default).
	Replicas int
	// Strategy selects the adversary strategy (spy, drop, eclipse). Live
	// estimation only; the abstract models measure spy and drop outcomes of
	// one trial at once.
	Strategy adversary.Strategy
	// Forge is the eclipse forgery rate (forged contacts per attacker per
	// minute); nonzero requires StrategyEclipse. Live estimation only.
	Forge float64
	// Table pins the DHT routing-table policy for live estimation (naive
	// stale-eviction vs ping-before-evict); TableDefault keeps the network
	// fabric's historical naive default.
	Table dht.TablePolicy
	// Partition runs the live point's one population across this many
	// parallel event loops (0 = one). Live estimation only.
	Partition int
	// Fault selects the deterministic fault-injection profile of the live
	// point's simnet fabric (none, burst, partition, flap); FaultSev scales
	// it in [0,1]. A none profile with nonzero severity — or vice versa — is
	// a valid no-op point, so severity and profile axes can cross freely.
	// Live estimation only; the abstract models are fault-blind.
	Fault    fault.Profile
	FaultSev float64
	// Retry is the live point's total send attempts per DHT RPC (0 or 1 =
	// the historical single-shot behaviour; above 1 enables the retry
	// hardening). Live estimation only.
	Retry int

	// Seed is the point's private base seed, assigned by the sweep
	// expansion: points sharing an X value share seeds, so series differ
	// only by the swept parameter (common random numbers).
	Seed uint64
	// Index is the point's flat position in the sweep grid; X and Series
	// locate it on the figure: the first-axis value and the series label
	// formed from the remaining axes.
	Index  int
	X      float64
	Series string
}

// Spec returns the canonical plan-builder parameters of the point.
func (pt Point) Spec() core.PlanSpec {
	budget := pt.Budget
	if budget == 0 {
		budget = pt.Network
	}
	return core.PlanSpec{
		Scheme: pt.Scheme,
		P:      pt.P,
		Alpha:  pt.Alpha,
		Budget: budget,
		K:      pt.K,
		L:      pt.L,
		ShareN: pt.ShareN,
		ShareM: pt.ShareM,
	}
}

// Plan builds the point's routing plan.
func (pt Point) Plan() (core.Plan, error) { return pt.Spec().Plan() }

// MaliciousCount is floor(p*N), the paper's Sybil head count.
func (pt Point) MaliciousCount() int { return int(pt.P * float64(pt.Network)) }

// Env is the point's abstract-model environment.
func (pt Point) Env() mc.Env {
	return mc.Env{Population: pt.Network, Malicious: pt.MaliciousCount(), Alpha: pt.Alpha}
}

// Validate checks what the abstract models read. The network half of a live
// point — forge rate, fault profile and severity, ... — is the live
// estimator's to check (scenario.Estimator.CheckPoint), against the one
// network validator.
func (pt Point) Validate() error {
	if pt.Network < 1 {
		return fmt.Errorf("experiment: network size %d must be >= 1", pt.Network)
	}
	if pt.P < 0 || pt.P > 1 || math.IsNaN(pt.P) {
		return fmt.Errorf("experiment: malicious rate %v outside [0,1]", pt.P)
	}
	// No numeric parameter is negative (or NaN): downstream defaults would
	// quietly measure with, say, 2 replicas while the emitters label the
	// series with the negative value.
	for i := range Params {
		if v := Params[i].get(&pt); !Params[i].categorical && !(v >= 0) {
			return fmt.Errorf("experiment: %s %v must be >= 0", Params[i].Name, v)
		}
	}
	if !pt.Scheme.Valid() {
		return fmt.Errorf("experiment: invalid scheme %d", int(pt.Scheme))
	}
	return nil
}

// Estimator measures the resilience of one experiment point. Implementations
// must be safe for concurrent use: the Runner calls Estimate from many
// goroutines.
type Estimator interface {
	// Name identifies the estimator in reports ("analytic", "mc", "live").
	Name() string
	// Estimate measures pt. The result must be deterministic for a fixed
	// point (including its seed) and independent of concurrent calls.
	Estimate(pt Point) (Result, error)
}

// Result is one measured point. Sampled estimators fill the outcome counts;
// the analytic estimator reports closed-form rates with zero Samples. Live
// estimation additionally carries the matched Monte Carlo references and the
// counters of the run.
type Result struct {
	Point Point
	Plan  core.Plan

	// Samples is the number of trials (MC) or missions (live); zero for the
	// closed forms. Released/Delivered/Succeeded are outcome counts.
	Samples   int
	Released  int
	Delivered int
	Succeeded int

	// Rr, Rd and R are the release-ahead, drop/loss and combined
	// resiliences.
	Rr float64
	Rd float64
	R  float64
	// Cost is the number of DHT nodes the plan consumes (Figure 6's C).
	Cost int
	// Predicted is the plan's closed-form resilience, when one exists.
	Predicted analytic.Resilience

	// HasReference marks live results cross-checked against the matched
	// Monte Carlo estimates; Agree* report the scenario.AgreesWithMC checks.
	HasReference bool
	RefRelease   mc.Result
	RefDeliver   mc.Result
	AgreeRelease bool
	AgreeDeliver bool
	// Counters is what a live run counted; zero for the abstract estimators.
	Counters

	// Elapsed is the wall-clock cost of the point. It is excluded from the
	// deterministic emitters.
	Elapsed time.Duration
}

// MinR returns min(Rr, Rd), Figure 6's plotting convention.
func (r Result) MinR() float64 { return math.Min(r.Rr, r.Rd) }

// Counters is what a live run counted, the one record that carries it from
// the network's accessors to the emitters. Every field is a pure function of
// the point: independent of GOMAXPROCS, worker counts and shard scheduling.
type Counters struct {
	// Deaths and Joins are churn deaths and replacement joins.
	Deaths, Joins int
	// Sent, Recv and Dropped are fabric datagrams.
	Sent, Recv, Dropped int
	// Retries, Recovered and Duplicates are the retry-hardened RPC layer's
	// re-sends, RPCs that settled after a re-send, and receiver-suppressed
	// duplicate deliveries; all zero on single-shot (Retry <= 1) runs.
	Retries, Recovered, Duplicates uint64
	// Epochs, IdleSkips and MergeAllocs are the event-loop engine's epoch
	// barriers, epochs with at most one busy shard, and hand-off outbox
	// capacity growths; every live run executes at least one epoch.
	Epochs, IdleSkips, MergeAllocs uint64
}

// Add sums o into c: the merge of a point's shards.
func (c *Counters) Add(o Counters) {
	c.Deaths += o.Deaths
	c.Joins += o.Joins
	c.Sent += o.Sent
	c.Recv += o.Recv
	c.Dropped += o.Dropped
	c.Retries += o.Retries
	c.Recovered += o.Recovered
	c.Duplicates += o.Duplicates
	c.Epochs += o.Epochs
	c.IdleSkips += o.IdleSkips
	c.MergeAllocs += o.MergeAllocs
}
