// Package scenario drives the real protocol stack — simnet transport, live
// Kademlia DHT, per-node protocol hosts — through full emergence missions
// under live churn and packet-level adversaries, and measures the
// release-ahead and drop resilience (Rr, Rd) the paper's Section IV plots.
// It is the end-to-end counterpart of the abstract Monte Carlo engine
// (internal/mc): the same experiment point measured twice, once by executing
// the protocol and once by sampling the model, cross-validates both.
//
// A scenario boots an N-node network in which floor(p*N) nodes are
// Sybil-controlled, every non-infrastructure node dies with an exponential
// lifetime and is replaced by a fresh join (keeping the population and the
// Sybil fraction stationary), and surviving key custodians repair churned
// holder slots by re-granting layer keys once per holding period. M missions
// run concurrently through the live network; each is scored like one Monte
// Carlo trial.
//
// A point may be sharded: Config.Shards = S partitions the M missions across
// S independent network replicas, each with its own simulator, simnet fabric
// and zone map, executed concurrently across cores and merged in fixed shard
// order — so one huge live point is no longer bound to a single core, and
// its missions average over S independent network compositions instead of
// sharing one.
package scenario

import (
	"fmt"
	"time"

	selfemerge "selfemerge"
	"selfemerge/internal/adversary"
	"selfemerge/internal/analytic"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/mc"
	"selfemerge/internal/protocol"
	"selfemerge/internal/stats"
)

// Config parameterizes one scenario run. The zero value is completed by
// defaults; Plan is required.
type Config struct {
	// Nodes is the DHT population N (default 200).
	Nodes int
	// MaliciousRate is the Sybil fraction p; floor(p*N) nodes are marked,
	// infrastructure (bootstrap, receiver, dispatcher) exempt.
	MaliciousRate float64
	// Drop is Strategy: adversary.StrategyDrop under another name, read only
	// by withDefaults when Strategy is unset. Everything downstream asks
	// Strategy.Drops(); the field stays for the benchmark workloads that
	// spell it.
	Drop bool
	// Strategy selects the malicious-holder strategy explicitly: spy
	// (default), drop, or eclipse (bucket poisoning plus drop). See
	// adversary.Strategy.
	Strategy adversary.Strategy
	// Forge is the eclipse flood intensity in forged contacts per attacker
	// per minute. Requires StrategyEclipse; zero degenerates to drop.
	Forge float64
	// Table selects the DHT bucket admission policy of every live node. The
	// default resolves (inside the network) to dht.TableNaive, the policy
	// all recorded deterministic runs were captured under; attack sweeps pin
	// dht.TablePingEvict for the defended arm of the curves.
	Table dht.TablePolicy
	// Alpha is the churn severity T/lifetime: the emerging period expressed
	// in mean node lifetimes. Zero disables churn.
	Alpha float64
	// Emerging is the period T between dispatch and release (default 2h).
	// Only the ratio Alpha matters to the model; the absolute value sets
	// how much simulated time the run spans.
	Emerging time.Duration
	// Missions is the number of live emergence trials M (default 100). All
	// of a shard's missions run concurrently through that shard's network.
	Missions int
	// Shards partitions the M missions across this many independent network
	// replicas (default 1), each booted from its own substream of Seed with
	// a private simulator and simnet fabric, executed concurrently across
	// cores and merged in fixed shard order. S is part of the point
	// descriptor, not an execution detail: changing it changes which random
	// streams are sampled (S independent zone maps instead of one), but the
	// merged result is byte-identical for a given (Config, S) regardless of
	// GOMAXPROCS or how callers schedule the shards. Shards=1 reproduces the
	// historical single-network run exactly. Clamped to Missions so every
	// shard runs at least one mission.
	Shards int
	// Budget optionally caps how many shard event loops run at once; nil
	// uses a private budget of min(Shards, GOMAXPROCS). The live estimator
	// shares one budget across every point of a sweep. Execution throttle
	// only — results never depend on it.
	Budget *Budget
	// Partition runs the point's ONE population across this many parallel
	// event loops — selfemerge.NetworkConfig.Partition, where each shard owns
	// a zone of the identifier space and cross-shard traffic merges at
	// conservative lockstep barriers. It is the scaling mode for populations
	// a single core's event loop cannot hold (replicate-mode Shards scales
	// mission count, not population). Zero means one shard, which replays
	// the recorded single-loop runs byte for byte; like Shards it is part of
	// the point descriptor (S > 1 samples decorrelated per-shard churn
	// substreams). It composes with every other knob, Shards included: each
	// replica network then runs on Partition loops.
	Partition int
	// Stagger spreads mission launches uniformly over this window (default:
	// one emerging period). Missions sharing one network see the same churn
	// trajectory; staggering exposes each to a different time slice, which
	// decorrelates their outcomes and keeps the measured rates' effective
	// sample size close to Missions. Negative disables staggering.
	Stagger time.Duration
	// Plan is the routing scheme shape to execute. Required.
	Plan core.Plan
	// Replicas is how many closest nodes receive each protocol packet
	// (default 1, so each holder slot maps to exactly one physical node as
	// the Monte Carlo model assumes; the production default elsewhere is 2).
	Replicas int
	// Fault selects the deterministic fault-injection profile the simnet
	// fabric runs under: none (default), burst (Gilbert–Elliott loss with
	// latency spikes and duplication), partition (timed bisections), or flap
	// (crash-restart windows). See fault.Profile. Every event loop carries
	// its own engine and judges at send time, so profiles compose with any
	// Partition.
	Fault fault.Profile
	// FaultSeverity scales the chosen profile in [0,1]; zero disables
	// injection even with a profile set, so sweep axes can cross severity
	// through zero.
	FaultSeverity float64
	// Retry is the total send attempts per DHT RPC (0 or 1 = single-shot,
	// the historical behaviour). Values above 1 enable the retry/backoff
	// hardening: per-RPC re-sends with deterministic jittered exponential
	// backoff, acked app delivery with receiver-side dedup, lookup re-query
	// of timed-out contacts, and doubled grant/share refresh pushes.
	Retry int
	// MCTrials sizes the Monte Carlo reference estimate (default 2000).
	MCTrials int
	// ShareModel pins the key-share churn-loss and release-exposure model of
	// the matched Monte Carlo references. The default (mc.ShareModelDefault)
	// resolves to mc.ShareModelLive for key-share plans — the chained,
	// protocol-faithful model that the live measurements cross-validate
	// against — and is ignored for the other schemes. Sweeps that want the
	// paper's coarse column-loss reference instead pin mc.ShareModelQuota; the
	// pinned value is part of the reference cache key.
	ShareModel mc.ShareModel
	// Seed makes the whole run — node IDs, malicious marking, lifetimes,
	// mission placement — reproducible.
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes == 0 {
		c.Nodes = 200
	}
	if c.Nodes < 10 {
		return c, fmt.Errorf("scenario: %d nodes is too small a population", c.Nodes)
	}
	if c.Alpha < 0 {
		return c, fmt.Errorf("scenario: alpha %v must be >= 0", c.Alpha)
	}
	if c.Emerging == 0 {
		c.Emerging = 2 * time.Hour
	}
	if c.Emerging < 0 {
		return c, fmt.Errorf("scenario: emerging period %v must be positive", c.Emerging)
	}
	if c.Missions == 0 {
		c.Missions = 100
	}
	if c.Missions < 1 {
		return c, fmt.Errorf("scenario: missions %d must be >= 1", c.Missions)
	}
	if c.Shards < 0 {
		return c, fmt.Errorf("scenario: shards %d must be >= 0", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards > c.Missions {
		c.Shards = c.Missions
	}
	if c.Stagger == 0 {
		c.Stagger = c.Emerging
	}
	if c.Stagger < 0 {
		c.Stagger = 0
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.MCTrials == 0 {
		c.MCTrials = 2000
	}
	if c.Drop && c.Strategy == adversary.StrategySpy {
		c.Strategy = adversary.StrategyDrop
	}
	if err := c.Plan.Validate(); err != nil {
		return c, fmt.Errorf("scenario: %w", err)
	}
	return c, c.network().Validate()
}

// network is the live network a defaulted config boots: the one place a
// Config field meets its NetworkConfig field, and so the one place the
// network half of a point is validated (NetworkConfig.Validate).
func (c Config) network() selfemerge.NetworkConfig {
	var lifetime time.Duration
	if c.Alpha > 0 {
		lifetime = time.Duration(float64(c.Emerging) / c.Alpha)
	}
	return selfemerge.NetworkConfig{
		Nodes:           c.Nodes,
		MaliciousRate:   c.MaliciousRate,
		Attack:          c.Strategy,
		ForgeRate:       c.Forge,
		Table:           c.Table,
		MeanLifetime:    lifetime,
		Replace:         true,
		HonestEndpoints: true,
		Replicas:        c.Replicas,
		Repair:          true,
		Partition:       c.Partition,
		Fault:           c.Fault,
		FaultSeverity:   c.FaultSeverity,
		Retry:           c.Retry,
		Seed:            c.Seed,
	}
}

// shareModel resolves the reference share model: an explicitly pinned value
// wins; otherwise key-share plans default to the live-faithful chained model
// (that is what the protocol stack being measured does) and the remaining
// schemes, which ignore the knob, stay on the zero value.
func (c Config) shareModel() mc.ShareModel {
	if c.ShareModel != mc.ShareModelDefault {
		return c.ShareModel
	}
	if c.Plan.Scheme == core.SchemeKeyShare {
		return mc.ShareModelLive
	}
	return mc.ShareModelDefault
}

// maliciousCount mirrors the Network's marking: floor(p*N), capped to the
// non-infrastructure population.
func (c Config) maliciousCount() int {
	count := int(c.MaliciousRate * float64(c.Nodes))
	if count > c.Nodes-3 {
		count = c.Nodes - 3
	}
	return count
}

// Result aggregates live mission outcomes for one scenario, mirroring
// mc.Result.
type Result struct {
	Missions  int
	Released  int // missions where the release-ahead attack succeeded
	Delivered int // missions where the key emerged on time
	Succeeded int // missions with neither early release nor delivery failure
}

// Rr is the measured release-ahead resilience 1 - P[attack success].
func (r Result) Rr() float64 { return 1 - ratio(r.Released, r.Missions) }

// Rd is the measured drop/loss resilience: the probability the key emerged
// at the release time despite malicious holders and churn.
func (r Result) Rd() float64 { return ratio(r.Delivered, r.Missions) }

// R is the combined resilience P[delivered and not stolen], the single curve
// plotted per scheme in Figures 7 and 8.
func (r Result) R() float64 { return ratio(r.Succeeded, r.Missions) }

// ReleaseCI returns the 95% Wilson interval for the release-ahead success
// probability.
func (r Result) ReleaseCI() (lo, hi float64) {
	var p stats.Proportion
	p.AddN(r.Released, r.Missions)
	return p.Wilson95()
}

// DeliverCI returns the 95% Wilson interval for the delivery probability.
func (r Result) DeliverCI() (lo, hi float64) {
	var p stats.Proportion
	p.AddN(r.Delivered, r.Missions)
	return p.Wilson95()
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Report is the full outcome of a scenario run: the live measurement, the
// matching Monte Carlo estimate, and the no-churn closed-form prediction.
type Report struct {
	Config Config

	Live Result
	// MC is the Monte Carlo estimate at the matched environment
	// (same population, malicious count and alpha).
	MC mc.Result
	// MCDelivery is the delivery reference. Under the drop attack it equals
	// MC. Under a spy adversary malicious holders forward faithfully, so
	// live delivery is compared against the same environment with zero
	// malicious nodes (churn losses only) — the model's counterpart of a
	// spying holder population.
	MCDelivery mc.Result
	// Predicted is the no-churn closed-form resilience (Equations (1)-(3)),
	// zero when no closed form applies.
	Predicted analytic.Resilience

	// Counters is what the live run counted, summed over its shards.
	experiment.Counters
	Elapsed time.Duration // wall-clock time of the live run
}

// AgreesWithMC reports whether the live release and delivery rates fall
// inside the 95% Wilson intervals of the Monte Carlo estimates. For the
// check to be statistically meaningful, size MCTrials comparably to
// Missions: the interval must reflect at least the sampling noise the live
// measurement carries.
func (r *Report) AgreesWithMC() (release, deliver bool) {
	relLo, relHi := r.MC.ReleaseCI()
	delLo, delHi := r.MCDelivery.DeliverCI()
	liveRel := ratio(r.Live.Released, r.Live.Missions)
	liveDel := ratio(r.Live.Delivered, r.Live.Missions)
	const eps = 1e-9 // absorb interval-endpoint rounding at 0 and 1
	return liveRel >= relLo-eps && liveRel <= relHi+eps,
		liveDel >= delLo-eps && liveDel <= delHi+eps
}

// Setup validates cfg, applies its defaults and boots the live network: the
// first of the three phases (setup, drive, score) the experiment runner
// composes. The returned Config is the defaulted one the later phases need.
// Setup boots exactly one network, so it rejects multi-shard configs; use
// Measure (or Run), which splits the point into per-shard configs and feeds
// each through these same phases.
func Setup(cfg Config) (Config, *selfemerge.Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return cfg, nil, err
	}
	if cfg.Shards > 1 {
		return cfg, nil, fmt.Errorf("scenario: Setup boots one network; %d shards need Measure", cfg.Shards)
	}
	net, err := selfemerge.NewNetwork(cfg.network())
	return cfg, net, err
}

// Drive launches cfg.Missions staggered missions through the live network
// and advances simulated time until every mission's release has passed and
// the final traffic has settled. cfg must be the defaulted Config Setup
// returned.
func Drive(cfg Config, net *selfemerge.Network) ([]*selfemerge.Message, error) {
	// Launch every mission with a deterministic identifier (the identifier
	// alone fixes the pseudo-random holder slot placement), staggered over
	// the launch window.
	rng := stats.NewRNG(cfg.Seed ^ 0x5ce7a110_c0ffee)
	var gap time.Duration
	if cfg.Missions > 1 {
		gap = cfg.Stagger / time.Duration(cfg.Missions)
	}
	msgs := make([]*selfemerge.Message, cfg.Missions)
	for i := range msgs {
		var id protocol.MissionID
		for w := 0; w < 2; w++ {
			v := rng.Uint64()
			for b := 0; b < 8; b++ {
				id[w*8+b] = byte(v >> (8 * b))
			}
		}
		msg, err := net.Send([]byte(fmt.Sprintf("mission-%d", i)), cfg.Emerging,
			selfemerge.WithPlan(cfg.Plan), selfemerge.WithMissionID(id))
		if err != nil {
			return nil, fmt.Errorf("scenario: dispatching mission %d: %w", i, err)
		}
		msgs[i] = msg
		if gap > 0 && i < cfg.Missions-1 {
			net.RunFor(gap)
		}
	}

	// Run the mission window plus slack for the final lookups and delivery.
	release := msgs[len(msgs)-1].Release()
	net.RunUntil(release.Add(time.Minute))
	net.Settle()
	return msgs, nil
}

// Score tallies each mission like one Monte Carlo trial. Release-ahead
// success follows Equation (1)'s semantics: the adversary reconstructs the
// key from start-time material — pre-assigned layer keys (including churn
// re-grants) plus the entry package — which completes strictly before the
// first forwarding hop at ts + th. Recoveries after that instant involve
// capturing the onion mid-route, a strictly weaker partial attack (it
// shortens the wait by at most (l-1)/l of the period) that neither Equation
// (1) nor the Monte Carlo engine counts.
func Score(cfg Config, net *selfemerge.Network, msgs []*selfemerge.Message) Result {
	hold := cfg.Plan.HoldPeriod(cfg.Emerging)
	res := Result{Missions: len(msgs)}
	for _, msg := range msgs {
		released := false
		if at, ok := net.AdversaryRecovered(msg); ok && at.Before(msg.Start().Add(hold)) {
			res.Released++
			released = true
		}
		if _, at, ok := net.Emerged(msg); ok && !at.Before(msg.Release()) {
			res.Delivered++
			if !released {
				res.Succeeded++
			}
		}
	}
	return res
}

// Measure runs the live phases only — setup, drive, score, once per shard —
// and returns a report without the Monte Carlo references (Report.MC and
// MCDelivery stay zero; Predicted and the churn/transport observability
// totals are filled). The experiment runner uses it so matched references
// are computed once per environment and shared across points instead of
// re-sampled inline. With Shards > 1 the shards execute concurrently (up to
// the budget) and their outcomes merge in fixed shard order, so the report
// is identical no matter how the shards were scheduled.
func Measure(cfg Config) (*Report, error) {
	began := time.Now() //lint:allow detrand Elapsed is operator-facing wall time, not part of the seeded result
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	report := &Report{Config: cfg}
	if err := measureShards(cfg, report); err != nil {
		return nil, err
	}
	report.Predicted = predicted(cfg)
	report.Elapsed = time.Since(began) //lint:allow detrand wall-time metadata only; every seeded quantity flows from pt.Seed
	return report, nil
}

// Reference describes one matched Monte Carlo reference estimate: the
// environment, trial count and seed that reproduce it. References with
// equal keys yield identical estimates, which is what lets the experiment
// runner compute each matched environment once and cache it.
type Reference struct {
	Plan   core.Plan
	Env    mc.Env
	Trials int
	Seed   uint64
}

// Key returns a canonical cache key: two references with the same key
// produce byte-identical estimates.
func (r Reference) Key() string {
	return fmt.Sprintf("%v/%d/%d/%d/%v|N%d m%d a%g sm%v|t%d s%d",
		r.Plan.Scheme, r.Plan.K, r.Plan.L, r.Plan.ShareN, r.Plan.ShareM,
		r.Env.Population, r.Env.Malicious, r.Env.Alpha, r.Env.ShareModel,
		r.Trials, r.Seed)
}

// Estimate runs the reference on a single trial worker, so equal keys yield
// identical estimates on every machine regardless of GOMAXPROCS (the trial
// partition, and hence the sampled streams, would otherwise vary).
func (r Reference) Estimate() (mc.Result, error) {
	return mc.Estimate(r.Plan, r.Env, mc.Options{Trials: r.Trials, Seed: r.Seed, Workers: 1})
}

// References returns the matched Monte Carlo reference descriptors for the
// (defaulted) config: the release reference at the live environment, and the
// delivery reference — identical under the drop attack, malicious-free
// (churn losses only) under a spy adversary, whose holders forward
// faithfully.
func (c Config) References() (release, deliver Reference) {
	env := mc.Env{
		Population: c.Nodes,
		Malicious:  c.maliciousCount(),
		Alpha:      c.Alpha,
		ShareModel: c.shareModel(),
	}
	release = Reference{Plan: c.Plan, Env: env, Trials: c.MCTrials, Seed: c.Seed + 101}
	if c.Strategy.Drops() {
		return release, release
	}
	env.Malicious = 0
	deliver = Reference{Plan: c.Plan, Env: env, Trials: c.MCTrials, Seed: c.Seed + 103}
	return release, deliver
}

// Run executes one scenario — the live measurement plus its inline Monte
// Carlo references — and returns its report. The run is fully deterministic
// for a fixed Config.
func Run(cfg Config) (*Report, error) {
	report, err := Measure(cfg)
	if err != nil {
		return nil, err
	}
	if err := report.estimateReferences(Reference.Estimate); err != nil {
		return nil, fmt.Errorf("scenario: reference estimate: %w", err)
	}
	return report, nil
}

// estimateReferences fills the report's matched references through estimate:
// the delivery reference is the release reference under a dropping strategy,
// else a second estimate.
func (r *Report) estimateReferences(estimate func(Reference) (mc.Result, error)) (err error) {
	relRef, delRef := r.Config.References()
	if r.MC, err = estimate(relRef); err != nil {
		return err
	}
	r.MCDelivery = r.MC
	if !r.Config.Strategy.Drops() {
		r.MCDelivery, err = estimate(delRef)
	}
	return err
}

// predicted returns the no-churn closed-form resilience of the plan, when
// one exists.
func predicted(cfg Config) analytic.Resilience {
	p := cfg.MaliciousRate
	switch cfg.Plan.Scheme {
	case core.SchemeCentral:
		return analytic.Central(p)
	case core.SchemeDisjoint:
		return analytic.Disjoint(p, cfg.Plan.K, cfg.Plan.L)
	case core.SchemeJoint:
		return analytic.Joint(p, cfg.Plan.K, cfg.Plan.L)
	default:
		return cfg.Plan.Predicted
	}
}
