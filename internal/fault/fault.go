// Package fault synthesizes correlated failure processes for the simulated
// network: Gilbert–Elliott burst loss, timed bisection partitions,
// latency-spike degraded links, message duplication, and crash-restart
// windows. The paper's failure model (Section II-C) is benign — independent
// per-message loss plus exponential churn — so these regimes sit outside
// the reference estimators by design; they exist to measure how far the
// protocol's resilience claims survive correlated faults, and what a retry
// layer buys back.
//
// Determinism: an Engine draws every decision from RNGs derived with
// stats.Mix64 substreams of its seed. Link verdicts (Judge) are asked for
// from the fabric's send path, in send order, which the event loop driving
// that fabric fixes; crash schedules use one substream per address,
// a pure function of the seed and the address, so wiring order cannot
// perturb them. An Engine belongs to one event loop: a population spread
// over several loops gives each loop's slice of the fabric its own engine on
// its own substream, judging what that loop's nodes send. A run with fault
// engines is as byte-reproducible as one without.
package fault

import (
	"fmt"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// Profile names a fault regime.
type Profile int

const (
	// ProfileNone injects nothing; the fabric's own jitter is the only
	// perturbation.
	ProfileNone Profile = iota
	// ProfileBurst drives a Gilbert–Elliott two-state loss chain over the
	// whole fabric: long good stretches with near-zero loss, punctuated by
	// bad bursts that drop most messages, spike latency, and occasionally
	// duplicate deliveries.
	ProfileBurst
	// ProfilePartition opens periodic bisection blackholes: addresses hash
	// onto two sides, and during a window every cross-side message vanishes.
	// The window function is pure in simulated time — no RNG draws — so the
	// schedule is identical on every run and every worker count.
	ProfilePartition
	// ProfileFlap crashes and restarts individual nodes: the endpoint goes
	// down for a sojourn and comes back with routing and custody state
	// intact — distinct from churn's permanent death and replacement.
	ProfileFlap
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case ProfileNone:
		return "none"
	case ProfileBurst:
		return "burst"
	case ProfilePartition:
		return "partition"
	case ProfileFlap:
		return "flap"
	default:
		return fmt.Sprintf("Profile(%d)", int(p))
	}
}

// ParseProfile parses a profile name as spelled by String.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "none", "":
		return ProfileNone, nil
	case "burst":
		return ProfileBurst, nil
	case "partition":
		return ProfilePartition, nil
	case "flap":
		return ProfileFlap, nil
	default:
		return ProfileNone, fmt.Errorf("fault: unknown profile %q (want none, burst, partition or flap)", s)
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Profile selects the fault regime.
	Profile Profile
	// Severity in [0,1] scales the regime's intensity: burst frequency and
	// depth, partition duty cycle, crash frequency and outage length.
	// Severity 0 makes every profile a no-op.
	Severity float64
	// Seed seeds the engine's substreams.
	Seed uint64
}

// Validate rejects out-of-range configurations.
func (c Config) Validate() error {
	if !(c.Severity >= 0 && c.Severity <= 1) {
		return fmt.Errorf("fault: severity %g outside [0,1]", c.Severity)
	}
	return nil
}

// Substream labels for the engine's Mix64 derivations.
const (
	streamLink  = 0x114b // per-message link verdicts (burst chain)
	streamCrash = 0xc4a5 // base for per-address crash schedules
)

// Partition window geometry: a blackout of Severity*partitionDuty*period
// opens at the start of every period. The period is chosen long enough
// that a retry policy spanning a few seconds can bridge a window, and the
// duty ceiling keeps connectivity majority-up even at severity 1.
const (
	partitionPeriod = 8 * time.Second
	partitionDuty   = 0.5
)

// Engine realizes one fault schedule. It implements simnet.Injector; wire it
// with SetInjector, one engine per fabric slice. Judge and ManageCrashes both
// run on that slice's loop.
type Engine struct {
	cfg Config
	rng *stats.RNG // link-verdict substream (burst chain)
	bad bool       // Gilbert–Elliott chain state

	// Burst parameters, fixed at construction from Severity.
	pBad, pGood         float64       // per-message good→bad / bad→good transition
	lossBad, lossGood   float64       // drop probability per state
	dupRate             float64       // duplicate probability (undropped messages)
	spikeBad, spikeGood time.Duration // max extra delay in bad / good state

	blackout time.Duration // partition window length per period
}

// New builds an engine for the given schedule.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sev := cfg.Severity
	return &Engine{
		cfg:       cfg,
		rng:       stats.NewRNG(stats.Mix64(cfg.Seed, streamLink)),
		pBad:      0.05 * sev,
		pGood:     0.25,
		lossBad:   0.7 + 0.3*sev,
		lossGood:  0.01 * sev,
		dupRate:   0.04 * sev,
		spikeBad:  time.Duration(sev * float64(60*time.Millisecond)),
		spikeGood: time.Duration(sev * float64(4*time.Millisecond)),
		blackout:  time.Duration(sev * partitionDuty * float64(partitionPeriod)),
	}, nil
}

// side assigns an address to one half of the bisection: an FNV-1a hash
// finished with a SplitMix64 avalanche, so similar addresses still split.
func side(addr transport.Addr) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return int(stats.Mix64(h, 0x51de) & 1)
}

// addrStream derives the per-address crash substream seed.
func addrStream(seed uint64, addr transport.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return stats.Mix64(stats.Mix64(seed, streamCrash), h)
}

// Judge implements simnet.Injector: one verdict per in-flight datagram.
func (e *Engine) Judge(now time.Time, from, to transport.Addr) simnet.Verdict {
	if e.cfg.Severity == 0 {
		return simnet.Verdict{}
	}
	switch e.cfg.Profile {
	case ProfileBurst:
		return e.judgeBurst()
	case ProfilePartition:
		// Pure window function: no RNG draws, so the schedule cannot shift
		// with message volume.
		if e.blackout > 0 && now.UnixNano()%int64(partitionPeriod) < int64(e.blackout) && side(from) != side(to) {
			return simnet.Verdict{Drop: true}
		}
		return simnet.Verdict{}
	default:
		// ProfileFlap perturbs availability (ManageCrashes), not links.
		return simnet.Verdict{}
	}
}

// judgeBurst advances the Gilbert–Elliott chain one message and rules on it.
func (e *Engine) judgeBurst() simnet.Verdict {
	if e.bad {
		if e.rng.Bool(e.pGood) {
			e.bad = false
		}
	} else if e.rng.Bool(e.pBad) {
		e.bad = true
	}
	loss, spike := e.lossGood, e.spikeGood
	if e.bad {
		loss, spike = e.lossBad, e.spikeBad
	}
	if e.rng.Bool(loss) {
		return simnet.Verdict{Drop: true}
	}
	var v simnet.Verdict
	if spike > 0 {
		v.Extra = time.Duration(e.rng.Uint64n(uint64(spike)))
	}
	if e.dupRate > 0 && e.rng.Bool(e.dupRate) {
		// The copy trails the original by a fresh spike draw (plus 1 so the
		// two deliveries never share an instant): duplication doubles as a
		// reordering stressor for the dedup paths.
		v.DupExtra = 1 + time.Duration(e.rng.Uint64n(uint64(e.spikeBad+time.Millisecond)))
	}
	return v
}

// Crash sojourn scaling: mean uptime shrinks and mean outage grows with
// severity. Outages are bounded well below a holding period so a crashed
// custodian's share is stale, not lost, when it restarts.
const (
	crashUpFloor   = 60 * time.Second
	crashUpRange   = 240 * time.Second
	crashDownFloor = 1 * time.Second
	crashDownRange = 9 * time.Second
)

// Fabric is what a crash schedule toggles (simnet.Network and Partition).
type Fabric interface {
	SetDown(addr transport.Addr, down bool)
}

// ManageCrashes alternates fabric.SetDown(addr, true) and (addr, false)
// with exponential up/down sojourns, starting up — the crash-restart
// regime of ProfileFlap. The schedule draws from a substream keyed by the
// address alone, so it is independent of wiring order and of every other
// node's schedule. For other profiles (or severity 0) it is a no-op
// returning a no-op stop, and allocates nothing. Call stop when the node is
// decommissioned for real (churn death): a crash is transient and keeps
// node state, so it must not outlive the node.
func (e *Engine) ManageCrashes(clock sim.Clock, addr transport.Addr, fabric Fabric) (stop func()) {
	if e.cfg.Profile != ProfileFlap || e.cfg.Severity == 0 {
		return func() {}
	}
	sev := e.cfg.Severity
	upMean := float64(crashUpFloor) + (1-sev)*float64(crashUpRange)
	downMean := float64(crashDownFloor) + sev*float64(crashDownRange)
	rng := stats.NewRNG(addrStream(e.cfg.Seed, addr))
	stopped := false
	var timer sim.ArgTimer
	var crash, restart func()
	crash = func() {
		if stopped {
			return
		}
		fabric.SetDown(addr, true)
		timer = clock.AfterFunc(time.Duration(rng.Exp(downMean)), restart)
	}
	restart = func() {
		if stopped {
			return
		}
		fabric.SetDown(addr, false)
		timer = clock.AfterFunc(time.Duration(rng.Exp(upMean)), crash)
	}
	timer = clock.AfterFunc(time.Duration(rng.Exp(upMean)), crash)
	return func() {
		stopped = true
		timer.Stop()
	}
}
