package scenario_test

import (
	"math"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/mc"
	"selfemerge/internal/scenario"
)

// The cross-validation suite measures the paper's Rr/Rd quantities twice at
// the same experiment point — once by running live missions through the full
// protocol stack (simnet + Kademlia + protocol hosts, with churn and
// adversaries), once by sampling the abstract Monte Carlo model — and
// asserts statistical agreement. MCTrials is sized to the live mission count
// so the model's Wilson interval reflects at least the sampling noise the
// live measurement carries.
//
// Live/model agreement holds at the ~2% level for the central and multipath
// schemes against their shared model, and for the key share scheme against
// the live-faithful mc.ShareModelLive references (the coarse column-loss
// models miss both the nested-custody release exposure and the chained
// per-slot survival the executable protocol exhibits).

// run executes a scenario and logs its comparison table.
func run(t *testing.T, cfg scenario.Config) *scenario.Report {
	t.Helper()
	report, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live Rr=%.3f Rd=%.3f | mc Rr=%.3f Rd=%.3f | %d deaths | wall %s",
		report.Live.Rr(), report.Live.Rd(), report.MC.Rr(), report.MCDelivery.Rd(),
		report.Deaths, report.Elapsed.Round(time.Millisecond))
	return report
}

// assertAgreement requires the live rates to fall inside the matched Monte
// Carlo estimate's 95% Wilson intervals.
func assertAgreement(t *testing.T, report *scenario.Report) {
	t.Helper()
	release, deliver := report.AgreesWithMC()
	if !release {
		lo, hi := report.MC.ReleaseCI()
		t.Errorf("live release rate %.3f outside MC 95%% Wilson interval [%.3f, %.3f]",
			1-report.Live.Rr(), lo, hi)
	}
	if !deliver {
		lo, hi := report.MCDelivery.DeliverCI()
		t.Errorf("live delivery rate %.3f outside MC 95%% Wilson interval [%.3f, %.3f]",
			report.Live.Rd(), lo, hi)
	}
}

func TestCrossValidateCentralChurn(t *testing.T) {
	report := run(t, scenario.Config{
		Nodes:         300,
		MaliciousRate: 0.2,
		Alpha:         1,
		Missions:      300,
		Plan:          core.Plan{Scheme: core.SchemeCentral, K: 1, L: 1},
		MCTrials:      300,
		Seed:          7,
	})
	assertAgreement(t, report)
}

func TestCrossValidateJointDropNoChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	report := run(t, scenario.Config{
		Nodes:         500,
		MaliciousRate: 0.15,
		Missions:      200,
		Plan:          core.Plan{Scheme: core.SchemeJoint, K: 3, L: 2},
		MCTrials:      200,
		Seed:          7,
		Live:          experiment.Live{Strategy: adversary.StrategyDrop},
	})
	assertAgreement(t, report)
}

func TestCrossValidateJointPureChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	report := run(t, scenario.Config{
		Nodes:    500,
		Alpha:    1,
		Missions: 300,
		Plan:     core.Plan{Scheme: core.SchemeJoint, K: 3, L: 2},
		MCTrials: 5000,
		Seed:     7,
	})
	// No adversary: release-ahead must never happen, on either path.
	if report.Live.Released != 0 {
		t.Errorf("pure churn released %d missions early", report.Live.Released)
	}
	if rel := 1 - report.MC.Rr(); rel != 0 {
		t.Errorf("model released %.3f with zero malicious nodes", rel)
	}
	// Delivery: the precise model point must sit inside the live Wilson
	// interval (the live measurement is the noisier of the two here).
	lo, hi := report.Live.DeliverCI()
	if mcRd := report.MCDelivery.Rd(); mcRd < lo || mcRd > hi {
		t.Errorf("model delivery %.3f outside live 95%% Wilson interval [%.3f, %.3f]", mcRd, lo, hi)
	}
}

// Seed selection for the share-scheme cross-validations. A live share point
// carries network-level scatter on top of per-mission noise: all missions of
// one network share a zone map, so the effective Sybil fraction the share
// chain meets is a per-network random variable (measured at +-0.06 release
// rate across seeds at N=500, p=0.15). The rule for picking a seed is
// therefore two-sided: (1) the live rates must fall inside the matched
// reference's 95% Wilson interval — the assertAgreement bound every seed
// must clear — and (2) the candidate must not be a lucky outlier, checked by
// validating the same config across at least three seeds (PR 3 used {3, 6,
// 7} for the churn point and committed 6) and, where the test asserts it,
// by requiring the live rate within the scatter band of a high-precision
// live-model estimate. Sharding tightens, never loosens, this rule: a
// Shards=S point averages S independent zone maps, shrinking the
// network-level scatter roughly by sqrt(S), so the unsharded seeds remain
// valid for their unsharded tests (shards=1 leaves their streams untouched)
// and the sharded variant below re-validated seed 6 — along with 3 and 7 —
// under its S=5 shard streams before committing it.

// TestCrossValidateShareNoChurn cross-validates the key share scheme's
// release-ahead exposure: at p = 0.15 the live adversary recovers ~14% of
// missions at start time — twenty times the coarse column-loss model's
// prediction, because the column-1 slot onions nest the whole future share
// chain — and the live-faithful reference model must agree, in both
// directions. Delivery without churn or drop is lossless on both sides.
func TestCrossValidateShareNoChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	report := run(t, scenario.Config{
		Nodes:         500,
		MaliciousRate: 0.15,
		Missions:      300,
		Plan:          core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}},
		MCTrials:      300,
		Seed:          5,
	})
	assertAgreement(t, report)
	if report.Live.Delivered != report.Live.Missions {
		t.Errorf("share scheme lost %d/%d missions without churn or drop",
			report.Live.Missions-report.Live.Delivered, report.Live.Missions)
	}
	// The release exposure is real and well-centered: the live rate sits
	// within the per-seed network-level scatter (+-0.06, measured across
	// seeds: the 300 missions of one run share a zone map, so their
	// effective Sybil rate is a network-level random variable) of a
	// high-precision live-model estimate, and far above the coarse quota
	// model's every-column-thresholds rate.
	precise, err := mc.Estimate(report.Config.Plan, mc.Env{
		Population: 500, Malicious: 75, ShareModel: mc.ShareModelLive,
	}, mc.Options{Trials: 50000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	liveRel := 1 - report.Live.Rr()
	if preciseRel := 1 - precise.Rr(); math.Abs(liveRel-preciseRel) > 0.06 {
		t.Errorf("live release %.4f vs precise live-model %.4f: outside the network-level scatter band",
			liveRel, preciseRel)
	}
	quota, err := mc.Estimate(report.Config.Plan, mc.Env{
		Population: 500, Malicious: 75, ShareModel: mc.ShareModelQuota,
	}, mc.Options{Trials: 50000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if liveRel < 5*(1-quota.Rr()) {
		t.Errorf("live release %.3f vs quota-model %.3f: nested-custody exposure vanished?",
			liveRel, 1-quota.Rr())
	}
}

// TestCrossValidateShareChurn is the churn cross-validation of the key
// share scheme: a 1000-node network at alpha = 1 under a 10% Sybil drop
// attack. Delivery is dominated by chained slot survival (the live model's
// refinement over per-column independence — the coarse models sit 15-30
// points too high here), and agreement must hold per-point in the Wilson
// sense for both release and delivery.
func TestCrossValidateShareChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	report := run(t, scenario.Config{
		Nodes:         1000,
		MaliciousRate: 0.1,
		Alpha:         1,
		Missions:      250,
		Plan:          core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}},
		MCTrials:      250,
		Seed:          6,
		Live:          experiment.Live{Strategy: adversary.StrategyDrop},
	})
	assertAgreement(t, report)
	// Churn really ran: alpha = 1 over the mission span kills the population
	// roughly twice, and every death was replaced.
	if report.Deaths < 1000 {
		t.Errorf("only %d deaths in a 1000-node alpha=1 scenario", report.Deaths)
	}
	if report.Joins != report.Deaths {
		t.Errorf("%d deaths but %d replacement joins", report.Deaths, report.Joins)
	}
	// The chained live model must beat the per-column model decisively: its
	// delivery estimate sits close to the live rate, the paper's quota model's
	// far above it.
	env := mc.Env{Population: 1000, Malicious: 100, Alpha: 1, ShareModel: mc.ShareModelLive}
	live, err := mc.Estimate(report.Config.Plan, env, mc.Options{Trials: 50000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	env.ShareModel = mc.ShareModelQuota
	quota, err := mc.Estimate(report.Config.Plan, env, mc.Options{Trials: 50000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	liveRate := report.Live.Rd()
	if gapLive, gapQuota := math.Abs(liveRate-live.Rd()), math.Abs(liveRate-quota.Rd()); gapLive > gapQuota/2 {
		t.Errorf("chained model gap %.3f not clearly below per-column model gap %.3f", gapLive, gapQuota)
	}
}

// TestCrossValidateShareChurnSharded is the sharded replica of the share
// churn cross-validation: the same 1000-node alpha=1 drop-attack point, its
// 250 missions partitioned over 5 independent network replicas (50 missions
// and a private zone map each). Agreement must hold exactly as for the
// single-network point — the shards change which random streams are sampled,
// not what they estimate — and the shard fan-out itself must merge
// deterministically (covered structurally by the shard engine tests; here
// the statistical contract is on trial).
func TestCrossValidateShareChurnSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	report := run(t, scenario.Config{
		Nodes:         1000,
		MaliciousRate: 0.1,
		Live:          experiment.Live{Strategy: adversary.StrategyDrop},
		Alpha:         1,
		Missions:      250,
		Shards:        5,
		Plan:          core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}},
		MCTrials:      250,
		Seed:          6, // re-validated across seeds {3, 6, 7} under S=5; see the seed rule above
	})
	assertAgreement(t, report)
	// Five populations of 1000 under alpha=1 churn: the merged death count
	// spans all shards, roughly 5x the single-network trajectory.
	if report.Deaths < 5000 {
		t.Errorf("only %d deaths across 5 sharded 1000-node alpha=1 networks", report.Deaths)
	}
	if report.Joins != report.Deaths {
		t.Errorf("%d deaths but %d replacement joins", report.Deaths, report.Joins)
	}
}

// TestThousandNodeLiveScenario is the headline cross-validation: a
// 1000-node live network under churn (alpha = 1) and a 10% Sybil drop
// attack, 250 concurrent missions, deterministic under its seed, finishing
// in well under a minute of wall time — with measured release and delivery
// rates inside the 95% Wilson intervals of the matched Monte Carlo
// estimate, in both directions.
func TestThousandNodeLiveScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	report := run(t, scenario.Config{
		Nodes:         1000,
		MaliciousRate: 0.1,
		Alpha:         1,
		Missions:      250,
		Plan:          core.Plan{Scheme: core.SchemeJoint, K: 3, L: 2},
		MCTrials:      250,
		Seed:          6,
		Live:          experiment.Live{Strategy: adversary.StrategyDrop},
	})
	assertAgreement(t, report)

	// Churn really ran at scale: alpha=1 over the mission span kills the
	// population roughly twice (launch window + emerging period).
	if report.Deaths < 1000 {
		t.Errorf("only %d deaths in a 1000-node alpha=1 scenario", report.Deaths)
	}
	if report.Joins != report.Deaths {
		t.Errorf("%d deaths but %d replacement joins", report.Deaths, report.Joins)
	}

	// Reverse direction: a high-precision model estimate must fall inside
	// the live measurement's own Wilson intervals.
	precise, err := mc.Estimate(report.Config.Plan, mc.Env{
		Population: report.Config.Nodes,
		Malicious:  100,
		Alpha:      1,
	}, mc.Options{Trials: 50000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	relLo, relHi := report.Live.ReleaseCI()
	if rel := 1 - precise.Rr(); rel < relLo || rel > relHi {
		t.Errorf("precise MC release %.4f outside live interval [%.3f, %.3f]", rel, relLo, relHi)
	}
	delLo, delHi := report.Live.DeliverCI()
	if del := precise.Rd(); del < delLo || del > delHi {
		t.Errorf("precise MC delivery %.4f outside live interval [%.3f, %.3f]", del, delLo, delHi)
	}

	if !raceEnabled && report.Elapsed > 60*time.Second {
		t.Errorf("1000-node scenario took %s, want < 60s", report.Elapsed)
	}
}
