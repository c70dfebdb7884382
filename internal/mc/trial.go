package mc

import (
	"fmt"
	"math"

	"selfemerge/internal/core"
	"selfemerge/internal/stats"
)

// Outcome is the result of one simulated emergence attempt under attack and
// (optionally) churn.
type Outcome struct {
	// Released reports a successful release-ahead attack: the adversary
	// gathered every onion layer key (and the entry package) and could
	// restore the secret key at start time ts.
	Released bool
	// Delivered reports that the secret key emerged at release time tr:
	// no drop attack or churn loss broke every path.
	Delivered bool
}

// ShareModel selects how the key-share scheme's trials sample churn losses
// and release-ahead exposure. The zero value defers to the paper's model, so
// existing callers (and the figure goldens) are unaffected.
type ShareModel uint8

const (
	// ShareModelDefault leaves the choice to the caller's context; the mc
	// engine itself resolves it to ShareModelQuota, the paper's model.
	// internal/scenario's matched references resolve it to ShareModelLive for
	// key-share plans, because that is what the executable protocol does.
	ShareModelDefault ShareModel = iota
	// ShareModelQuota is the paper's model: each column loses exactly
	// d = floor(pdead*n) shares per holding period — the same quantity
	// Algorithm 1 plans its thresholds against — and every column's carrier
	// set is sampled independently.
	ShareModelQuota
	// ShareModelLive mirrors the executable protocol (internal/protocol)
	// closely enough to cross-validate against live scenario runs:
	//
	//   - Deaths are independent per carrier (as under exponential churn),
	//     and a slot's carrier chain must survive *cumulatively*: the slot
	//     onion of carrier (c, s) travels only down slot s, so one dead or
	//     withholding ancestor kills the whole chain — per-column
	//     independence, the coarse models' optimism, is gone.
	//   - The main onion fans out to every carrier of the next column, so it
	//     survives a column when any carrier there is honest and alive (and
	//     the column key's share threshold was met one hop earlier).
	//   - Release-ahead follows the nested-custody reality: the column-1
	//     slot onions hold the entire future share chain, sealed under slot
	//     keys whose shares ride in the same column, so an adversary with at
	//     least max(m) malicious column-1 carriers — one of them a main
	//     holder — unwraps everything at start time. Later columns add no
	//     release opportunities before the scoring cutoff at ts + th.
	ShareModelLive
)

// ParseShareModel parses a share model name: default, quota (the paper's
// column-loss model) or live (the protocol-faithful chained model).
func ParseShareModel(s string) (ShareModel, error) {
	switch s {
	case "", "default":
		return ShareModelDefault, nil
	case "quota":
		return ShareModelQuota, nil
	case "live":
		return ShareModelLive, nil
	default:
		return 0, fmt.Errorf("mc: unknown share model %q (want default|quota|live)", s)
	}
}

// String names the model.
func (m ShareModel) String() string {
	switch m {
	case ShareModelDefault:
		return "default"
	case ShareModelQuota:
		return "quota"
	case ShareModelLive:
		return "live"
	default:
		return fmt.Sprintf("ShareModel(%d)", uint8(m))
	}
}

// Env describes the simulated environment of one experiment point.
type Env struct {
	// Population is the DHT network size N (10,000 in most of the paper's
	// experiments, 100 in Figure 6(c)/(d)).
	Population int
	// Malicious is the number of Sybil-controlled nodes, floor(p*N).
	Malicious int
	// Alpha is the churn severity T/tlife: the emerging period expressed in
	// mean node lifetimes. Zero disables churn (Figure 6's setting).
	Alpha float64
	// ShareModel selects the key-share scheme's churn-loss and
	// release-exposure model; ignored by the other schemes.
	ShareModel ShareModel
}

// Validate checks the environment parameters.
func (e Env) Validate() error {
	if e.Population < 1 {
		return fmt.Errorf("mc: population %d must be >= 1", e.Population)
	}
	if e.Malicious < 0 || e.Malicious > e.Population {
		return fmt.Errorf("mc: malicious count %d outside [0, %d]", e.Malicious, e.Population)
	}
	if e.Alpha < 0 || math.IsNaN(e.Alpha) {
		return fmt.Errorf("mc: alpha %v must be >= 0", e.Alpha)
	}
	if e.ShareModel > ShareModelLive {
		return fmt.Errorf("mc: unknown share model %d", e.ShareModel)
	}
	return nil
}

// RunTrial simulates one emergence attempt of the given plan in env using
// rng, and returns the attack outcome. It is deterministic given the RNG
// state.
func RunTrial(plan core.Plan, env Env, rng *stats.RNG) Outcome {
	sampler := newMaliciousSampler(rng, env.Population, env.Malicious)
	// Per-holding-period death probability: the decay model of Bhagwan et
	// al. adopted by the paper, q = 1 - exp(-th/lambda) with th = T/l, i.e.
	// q = 1 - exp(-alpha/l).
	q := 0.0
	if env.Alpha > 0 {
		q = 1 - math.Exp(-env.Alpha/float64(plan.L))
	}
	switch plan.Scheme {
	case core.SchemeCentral:
		return centralTrial(env, sampler, rng)
	case core.SchemeDisjoint:
		return multipathTrial(plan, false, q, sampler, rng)
	case core.SchemeJoint:
		return multipathTrial(plan, true, q, sampler, rng)
	case core.SchemeKeyShare:
		if env.ShareModel == ShareModelLive {
			return shareLiveTrial(plan, q, sampler, rng)
		}
		return shareTrial(plan, q, sampler, rng)
	default:
		panic(fmt.Sprintf("mc: unknown scheme %v", plan.Scheme))
	}
}

// centralTrial: one node keeps the key for the whole emerging period. A
// malicious node can both read the key at ts and withhold it at tr; under
// churn the node must additionally survive the full period T = alpha
// lifetimes, and its death loses the key (a single node has no replica to
// repair from).
func centralTrial(env Env, sampler *maliciousSampler, rng *stats.RNG) Outcome {
	malicious := sampler.Draw()
	survives := true
	if env.Alpha > 0 {
		survives = rng.Float64() < math.Exp(-env.Alpha)
	}
	return Outcome{
		Released:  malicious,
		Delivered: !malicious && survives,
	}
}

// multipathTrial simulates the node-disjoint (joint=false) and node-joint
// (joint=true) schemes, including the churn-repair dynamics of Section II-C:
// a column's layer key lives on its k holders from ts until the onion
// arrives; each holding period every holder dies with probability q; dead
// holders are replaced by fresh DHT nodes that receive the key from a
// surviving replica (one more chance to be malicious); if an entire column
// dies within one period the layer key is lost forever.
func multipathTrial(plan core.Plan, joint bool, q float64, sampler *maliciousSampler, rng *stats.RNG) Outcome {
	k, l := plan.K, plan.L

	// forward[i][j]: holder i of column j was honest at onion arrival and
	// survived the carry period, so its copy moved on.
	forward := make([][]bool, k)
	for i := range forward {
		forward[i] = make([]bool, l)
	}
	released := true
	keyLost := false

	for j := 0; j < l; j++ {
		// Current occupants of the column's k holder slots.
		malicious := make([]bool, k)
		columnCompromised := false
		for i := range malicious {
			malicious[i] = sampler.Draw()
			columnCompromised = columnCompromised || malicious[i]
		}
		columnKeyAlive := true

		// Storage periods 1..j: the layer key K_{j+1} waits on the holders
		// until the onion arrives after j holding periods. Every period each
		// holder dies with probability q; a dead slot is re-filled by a
		// fresh node which receives the key from a surviving replica (one
		// more malicious draw); if all k replicas die within one period the
		// key is lost. Rather than looping over every quiet period, jump
		// straight to the next period containing at least one death — the
		// skip is geometric, so the sampled process is statistically
		// identical to the period-by-period loop.
		if q > 0 && j > 0 {
			deathPeriodProb := 1 - math.Pow(1-q, float64(k))
			period := 0
			for deathPeriodProb > 0 {
				period += rng.Geometric(deathPeriodProb)
				if period > j {
					break
				}
				d := conditionalDeaths(rng, k, q)
				if d == k {
					// No replica left to repair from: the key is gone.
					columnKeyAlive = false
					break
				}
				for _, slot := range rng.SampleWithoutReplacement(k, d) {
					malicious[slot] = sampler.Draw()
					columnCompromised = columnCompromised || malicious[slot]
				}
			}
		}
		if !columnKeyAlive {
			keyLost = true
		}

		// Carry period: the occupants receive the onion, must be honest and
		// must live long enough to forward it.
		for i := 0; i < k; i++ {
			ok := columnKeyAlive && !malicious[i]
			if ok && q > 0 && rng.Float64() < q {
				ok = false // died while holding the onion
			}
			forward[i][j] = ok
		}

		// Release-ahead bookkeeping (Equation (1) semantics): the adversary
		// needs at least one replica of every column's layer key; every node
		// that ever stored the key — initial holders and churn replacements —
		// is an opportunity.
		released = released && columnCompromised
	}

	delivered := false
	if !keyLost {
		if joint {
			// The onion survives a column if any holder forwarded it
			// (packages fan out to every next-column holder).
			delivered = true
			for j := 0; j < l && delivered; j++ {
				columnOK := false
				for i := 0; i < k; i++ {
					if forward[i][j] {
						columnOK = true
						break
					}
				}
				delivered = columnOK
			}
		} else {
			// Node-disjoint: a path delivers only if every one of its own
			// holders forwarded.
			for i := 0; i < k && !delivered; i++ {
				pathOK := true
				for j := 0; j < l; j++ {
					if !forward[i][j] {
						pathOK = false
						break
					}
				}
				delivered = pathOK
			}
		}
	}
	return Outcome{Released: released, Delivered: delivered}
}

// conditionalDeaths samples D ~ Binomial(k, q) conditioned on D >= 1 by
// inversion over the conditional pmf. Used by the period-skipping churn
// simulation, where quiet periods are skipped geometrically and each visited
// period is guaranteed at least one death.
func conditionalDeaths(rng *stats.RNG, k int, q float64) int {
	if q >= 1 {
		return k
	}
	norm := 1 - math.Pow(1-q, float64(k))
	u := rng.Float64() * norm
	// pmf(d) = C(k,d) q^d (1-q)^(k-d), iterated via the ratio recurrence.
	pmf := float64(k) * q * math.Pow(1-q, float64(k-1))
	cum := 0.0
	for d := 1; d <= k; d++ {
		cum += pmf
		if u <= cum {
			return d
		}
		pmf *= float64(k-d) / float64(d+1) * q / (1 - q)
	}
	return k // float round-off fallback
}

// shareTrial simulates the key share routing scheme. Columns 1..l-1 hold n
// carriers each (the k main-path holders are among them); the terminal
// column holds only the k main holders. Every onion layer key is Shamir
// split (m, n) and travels one hop behind schedule, so each carrier is
// exposed for a single holding period — the root of the scheme's churn
// resilience.
//
// Churn losses follow the paper's model by default: each column loses
// exactly floor(q*n) shares per holding period, the quantity d that
// Algorithm 1 budgets its thresholds against (see Env.ShareModel).
func shareTrial(plan core.Plan, q float64, sampler *maliciousSampler, rng *stats.RNG) Outcome {
	k, l, n := plan.K, plan.L, plan.ShareN

	released := true
	delivered := true

	for c := 0; c < l-1; c++ {
		m := plan.ShareM[c] // threshold protecting the column c+2 key
		dead := deathSet(rng, n, q)
		maliciousShares := 0
		deliveredShares := 0
		mainCompromised := false
		mainForwarded := false
		for s := 0; s < n; s++ {
			malicious := sampler.Draw()
			if malicious {
				maliciousShares++
				if c == 0 && s < k {
					mainCompromised = true
				}
			} else if !dead[s] {
				deliveredShares++
				if c == 0 && s < k {
					mainForwarded = true
				}
			}
		}
		if c == 0 {
			// Release-ahead needs the main onion nest, which only the k main
			// first-column holders possess at ts; delivery needs at least one
			// of them to forward the main onion.
			released = released && mainCompromised
			delivered = delivered && mainForwarded
		}
		released = released && maliciousShares >= m
		delivered = delivered && deliveredShares >= m
	}

	// Terminal column: resources are uniform along the paths (Algorithm 1
	// line 1), so the last column also holds n carriers; each recovers the
	// final layer key from the delivered shares, and at least one honest
	// survivor must remain to release the secret key at tr.
	terminalDead := deathSet(rng, n, q)
	terminalOK := false
	terminalCompromised := false
	for s := 0; s < n; s++ {
		malicious := sampler.Draw()
		if malicious {
			terminalCompromised = true
		} else if !terminalDead[s] {
			terminalOK = true
		}
	}
	delivered = delivered && terminalOK
	if l == 1 {
		// Degenerate single-column plan: n-replicated direct storage; any
		// malicious holder reads the key immediately.
		released = terminalCompromised
	}

	return Outcome{Released: released, Delivered: delivered}
}

// shareLiveTrial simulates the key share scheme with the semantics the
// executable protocol actually exhibits (ShareModelLive); see the constant's
// doc for the three points where it departs from the coarse per-column
// models. The outcome cross-validates against internal/scenario's live
// measurements within Wilson intervals.
//
// Per column c and slot s one occupant is drawn (malicious?) and one death
// coin is flipped (dies during its single holding period of custody?).
// ok[s] = honest and surviving is what lets the occupant forward; chains
// additionally require every ancestor ok, the main onion only some occupant
// ok per column. Share re-grant repair (protocol churn repair) re-delivers
// key material to replacement occupants but cannot re-create the
// single-custody packages that died with their holder, so it adds no
// delivery term here — which the live cross-validation confirms.
func shareLiveTrial(plan core.Plan, q float64, sampler *maliciousSampler, rng *stats.RNG) Outcome {
	k, l, n := plan.K, plan.L, plan.ShareN

	// Column 1: occupants receive everything directly at start time. Their
	// maliciousness alone decides release-ahead (the nested-custody attack
	// runs entirely on start-time material); deaths only affect forwarding.
	maxM := 0
	for _, m := range plan.ShareM {
		if m > maxM {
			maxM = m
		}
	}
	maliciousCount := 0
	mainMalicious := false
	chain := make([]bool, n) // slot chain still intact and delivering
	alive := 0               // chains that forwarded out of the current column
	mainAlive := false       // main onion custody survives, some holder can peel
	for s := 0; s < n; s++ {
		malicious := sampler.Draw()
		if malicious {
			maliciousCount++
			if s < k {
				mainMalicious = true
			}
		}
		ok := !malicious && !(q > 0 && rng.Float64() < q)
		chain[s] = ok
		if ok {
			alive++
			if s < k {
				mainAlive = true
			}
		}
	}
	if l == 1 {
		// Degenerate single-column plan: the k main holders alone store the
		// secret for one period; any malicious one reads it outright.
		return Outcome{Released: mainMalicious, Delivered: mainAlive}
	}
	released := mainMalicious && maliciousCount >= maxM

	// Columns 2..l: the threshold gate of the previous column's scattered
	// shares applies to main and slot custody alike (CK_c and the SK_{c,s}
	// are split with the same threshold and scattered by the same carriers).
	delivered := true
	for c := 2; c <= l; c++ {
		if alive < plan.ShareM[c-2] {
			delivered = false
			break
		}
		columnOK := false
		nextAlive := 0
		for s := 0; s < n; s++ {
			malicious := sampler.Draw()
			ok := !malicious && !(q > 0 && rng.Float64() < q)
			if ok {
				columnOK = true
			}
			chain[s] = chain[s] && ok
			if chain[s] {
				nextAlive++
			}
		}
		mainAlive = mainAlive && columnOK
		alive = nextAlive
	}
	delivered = delivered && mainAlive

	return Outcome{Released: released, Delivered: delivered}
}

// deathSet returns which of n carriers die during one holding period: under
// the paper's model exactly floor(q*n) uniformly-chosen carriers. A nil map
// means no deaths.
func deathSet(rng *stats.RNG, n int, q float64) map[int]bool {
	if q <= 0 || n <= 0 {
		return nil
	}
	dead := make(map[int]bool)
	for _, s := range rng.SampleWithoutReplacement(n, int(q*float64(n))) {
		dead[s] = true
	}
	return dead
}
