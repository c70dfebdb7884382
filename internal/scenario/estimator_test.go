package scenario_test

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/scenario"
)

// liveSweep is the headline live grid: the 1000-node churn + drop-attack
// configuration of TestThousandNodeLiveScenario, swept as a multi-point
// Rr/Rd curve through the full protocol stack.
func liveSweep() experiment.Sweep {
	return experiment.Sweep{
		Name: "live-test",
		Seed: 6,
		Base: experiment.Point{Network: 1000, Alpha: 1, K: 3, L: 2, Scheme: core.SchemeJoint, Live: experiment.Live{Strategy: adversary.StrategyDrop}},
		Axes: []experiment.Axis{experiment.RangeAxis("p", 0, 0.2, 0.1)},
	}
}

// TestCheckPointValidatesTheNetworkHalf: Point.Validate checks only what the
// abstract models read, so a forge rate without the eclipse strategy expands
// into a grid; the live estimator refuses it at pre-flight through the one
// network validator, as it does a fault severity outside [0,1].
func TestCheckPointValidatesTheNetworkHalf(t *testing.T) {
	sw := experiment.Sweep{
		Base: experiment.Point{Network: 100, Scheme: core.SchemeJoint, K: 2, L: 2},
		Axes: []experiment.Axis{experiment.FloatAxis("forge", 10)},
	}
	if _, err := sw.Points(); err != nil {
		t.Fatalf("Points refused a forge axis: %v", err)
	}
	if err := (experiment.Runner{Estimator: &scenario.Estimator{}}).Validate(sw); err == nil {
		t.Error("live estimator accepted a forge rate without the eclipse strategy")
	}
	est := &scenario.Estimator{}
	pt := sw.Base
	pt.Forge, pt.Strategy = 10, adversary.StrategyEclipse
	if err := est.CheckPoint(pt); err != nil {
		t.Errorf("eclipse point with a forge rate refused: %v", err)
	}
	pt.Fault, pt.FaultSeverity = fault.ProfileBurst, 1.5
	if err := est.CheckPoint(pt); err == nil {
		t.Error("live estimator accepted fault severity 1.5")
	}
}

// TestLiveSweepAgreesWithMC is the sweep-level cross-validation: every point
// of a live curve must sit inside the 95% Wilson intervals of its matched
// (runner-cached) Monte Carlo references — the same check scenario.Run's
// AgreesWithMC applies to a single point.
func TestLiveSweepAgreesWithMC(t *testing.T) {
	if testing.Short() {
		t.Skip("live sweeps are slow")
	}
	est := &scenario.Estimator{Template: scenario.Config{Missions: 250}}
	rs, err := experiment.Runner{Estimator: est}.Run(liveSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rs.Results {
		if !res.HasReference {
			t.Fatalf("live point %d has no Monte Carlo reference", res.Point.Index)
		}
		if res.Samples != 250 || res.RefRelease.Trials != 250 {
			t.Errorf("point %d: %d missions vs %d reference trials, want 250/250",
				res.Point.Index, res.Samples, res.RefRelease.Trials)
		}
		if !res.AgreeRelease {
			t.Errorf("p=%.2f: live release rate %.3f outside MC Wilson interval (ref Rr %.3f)",
				res.Point.P, 1-res.Rr, res.RefRelease.Rr())
		}
		if !res.AgreeDeliver {
			t.Errorf("p=%.2f: live delivery rate %.3f outside MC Wilson interval (ref Rd %.3f)",
				res.Point.P, res.Rd, res.RefDeliver.Rd())
		}
	}
	// The p=0 point shares one environment between release and delivery
	// references under the drop attack — the cache must have coalesced them.
	first := rs.Results[0]
	if first.RefRelease != first.RefDeliver {
		t.Error("drop-attack references not shared between release and delivery")
	}
	// Resilience must not improve as the Sybil fraction grows.
	if rs.Results[0].Rr < rs.Results[2].Rr-0.05 {
		t.Errorf("Rr grew with p: %.3f at p=0 vs %.3f at p=0.2", rs.Results[0].Rr, rs.Results[2].Rr)
	}
}

// TestLiveSweepDeterministicAcrossWorkerCounts: each live point owns its
// private simulator and fabric — and with Shards > 1, several of them — so
// the emitted sweep must be byte-identical across every execution shape: the
// runner's worker count {1, 4} crossed with GOMAXPROCS {1, NumCPU}, plus a
// warm repeat of the last shape in the same process. The repeat is the
// recycled-buffer regression check: the onion build scratch is a
// process-level list shared across goroutines, so a rerun over dirty scratch
// (and any hand-over between concurrent shards) must still reproduce the
// cold-start bytes exactly. The scheme axis includes the
// key share scheme, exercising the live share path — just-in-time share
// scatter, oracle-validated threshold recovery, share re-grant repair, all
// through cloned custody of recycled delivery buffers — and its matched
// live-model references under all shapes; Shards=2 on the estimator makes
// every point fan out inside the worker pool through the shard slot limit,
// one shard at a time under GOMAXPROCS 1. The fault axis adds a burst-loss arm with retry hardening on top
// of the clean arm: the fault engine's Gilbert–Elliott draws, the two-phase
// retry timers and the fault columns of the emitters must all be
// byte-stable across the same execution shapes. A second sweep runs the
// fault and eclipse arms with every replica network split over two event
// loops (Partition: 2 on the base point): per-loop fault engines judging at send time, the
// barrier-driven forger, and the loop-stats columns must be just as stable.
func TestLiveSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("live sweeps are slow")
	}
	faultAxis, err := experiment.ParseAxis("fault=none,burst")
	if err != nil {
		t.Fatal(err)
	}
	est := func() *scenario.Estimator {
		return &scenario.Estimator{Template: scenario.Config{Missions: 30, Shards: 2}}
	}
	liveSweepStableAcrossShapes(t, est, experiment.Sweep{
		Name: "live-det",
		Seed: 11,
		Base: experiment.Point{
			Network: 120, Alpha: 1,
			K: 2, L: 2, ShareN: 4, ShareM: []int{2}, Scheme: core.SchemeJoint,
			Live: experiment.Live{Strategy: adversary.StrategyDrop, FaultSeverity: 0.5, Retry: 3},
		},
		Axes: []experiment.Axis{
			experiment.RangeAxis("p", 0, 0.2, 0.2),
			experiment.SchemeAxis(core.SchemeJoint, core.SchemeKeyShare),
			faultAxis,
		},
	})
	// Fewer missions and a light flood: retried RPCs to forged contacts make
	// an eclipse point several times the datagrams of a drop point.
	est = func() *scenario.Estimator {
		return &scenario.Estimator{Template: scenario.Config{Missions: 12, Shards: 2}}
	}
	liveSweepStableAcrossShapes(t, est, experiment.Sweep{
		Name: "live-det-partitioned",
		Seed: 11,
		Base: experiment.Point{
			Network: 80, P: 0.2, Alpha: 1,
			K: 2, L: 2, Scheme: core.SchemeJoint,
			Live: experiment.Live{Strategy: adversary.StrategyEclipse, FaultSeverity: 0.5, Retry: 3, Partition: 2},
		},
		Axes: []experiment.Axis{
			experiment.FloatAxis("forge", 0, 3),
			faultAxis,
		},
	})
}

// liveSweepStableAcrossShapes runs one sweep under every execution shape and
// requires byte-identical CSV and JSON output.
func liveSweepStableAcrossShapes(t *testing.T, est func() *scenario.Estimator, sw experiment.Sweep) {
	t.Helper()
	type shape struct{ gomaxprocs, parallel int }
	var shapes []shape
	for _, gmp := range []int{1, runtime.NumCPU()} {
		for _, parallel := range []int{1, 4} {
			shapes = append(shapes, shape{gmp, parallel})
		}
	}
	// Warm-pool repeat: the last shape again, over pools already populated
	// by every run before it.
	shapes = append(shapes, shapes[len(shapes)-1])
	var outputs [][]byte
	for _, sh := range shapes {
		prev := runtime.GOMAXPROCS(sh.gomaxprocs)
		rs, err := experiment.Runner{Estimator: est(), Parallel: sh.parallel}.Run(sw)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rs.Results {
			if !res.HasReference {
				t.Fatalf("live point %d (%s) has no Monte Carlo reference", res.Point.Index, res.Point.Series)
			}
		}
		var out bytes.Buffer
		if err := rs.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteJSON(&out); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, out.Bytes())
	}
	for i := 1; i < len(outputs); i++ {
		if !bytes.Equal(outputs[0], outputs[i]) {
			t.Errorf("live sweep %s differs between shape %+v and %+v:\n%s\nvs:\n%s",
				sw.Name, shapes[0], shapes[i], outputs[0], outputs[i])
		}
	}
}

// TestLiveSweepWorkerScaling checks the tentpole's performance claim: a
// multi-point live sweep on >= 4 cores finishes in well under half the
// summed single-point wall times, because every point gets a private
// simulator and the runner spreads points over the cores.
func TestLiveSweepWorkerScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement is slow")
	}
	if raceEnabled {
		t.Skip("wall-clock assertion unreliable under the race detector")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 cores, have %d", runtime.GOMAXPROCS(0))
	}
	sw := experiment.Sweep{
		Name: "live-scaling",
		Seed: 3,
		Base: experiment.Point{Network: 250, Alpha: 1, K: 3, L: 2, Scheme: core.SchemeJoint, Live: experiment.Live{Strategy: adversary.StrategyDrop}},
		Axes: []experiment.Axis{experiment.RangeAxis("p", 0, 0.15, 0.05)},
	}

	// Sequential baseline: summed single-point wall times.
	seq, err := experiment.Runner{Estimator: &scenario.Estimator{Template: scenario.Config{Missions: 100}}, Parallel: 1}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	par, err := experiment.Runner{Estimator: &scenario.Estimator{Template: scenario.Config{Missions: 100}}, Parallel: 4}.Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("4 live points: sequential %s (summed %s), 4 workers %s",
		seq.Elapsed.Round(time.Millisecond), seq.PointElapsed.Round(time.Millisecond),
		par.Elapsed.Round(time.Millisecond))
	if par.Elapsed >= seq.PointElapsed*6/10 {
		t.Errorf("4-worker live sweep took %s, want < 0.6x the sequential sum %s",
			par.Elapsed, seq.PointElapsed)
	}
}
