package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime/pprof"
	"time"
)

// result is one workload's rows: the 14 end-to-end metrics, and after a
// traced run the per-layer ones too.
type result struct {
	Workload string `json:"workload"`
	Seeds    int    `json:"seeds"`
	Passes   int    `json:"passes"`
	// Attempted counts missions over every rep; Failed counts the wrong
	// outcomes among them (see failed_share).
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Speed is the run's host speed on the calibration kernel's clock (1.0 is
	// the box the ledger was recorded on, quiet); every host-time metric is
	// measured time x Speed. CalibRuns is the kernel runs behind it.
	Speed     float64 `json:"host_speed"`
	CalibRuns int     `json:"calib_runs"`
	// Digest hashes every deterministic field of every seed. A change that
	// only claims speed must leave it unchanged.
	Digest  string           `json:"sim_digest"`
	Metrics map[string]value `json:"metrics"`
}

// pass runs the workload once over every seed. With a calibrator, the
// calibration kernel runs after every rep until it has had its share of the
// work time so far.
func (w *workload) pass(seeds []uint64, tr *tracer, cal *calibrator) ([]rep, error) {
	reps := make([]rep, len(seeds))
	var work time.Duration
	for i, seed := range seeds {
		began := time.Now()
		r, err := w.runRep(seed, tr)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, i, err)
		}
		reps[i] = r
		if cal != nil {
			work += time.Since(began)
			cal.keepUp(work)
		}
	}
	return reps, nil
}

// tally folds the reps' output checks into the result: wrong outcomes, plus
// every mission of a rep whose deterministic fields differ from the first
// rep over the same seed. perSeed[i] holds the reps over seed i.
func (res *result) tally(w *workload, perSeed [][]rep) {
	sims := make([]simStats, len(perSeed))
	for i, reps := range perSeed {
		for _, r := range reps {
			res.Attempted += w.missions()
			res.Failed += r.wrong
			if !reflect.DeepEqual(r.sim, reps[0].sim) {
				res.Failed += w.missions()
			}
		}
		sims[i] = reps[0].sim
	}
	res.Digest = fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", sims))))[:16]
}

// passOf returns the p-th rep over every seed, split into host and
// simulation statistics.
func passOf(perSeed [][]rep, p int) ([]hostStats, []simStats) {
	host, sims := make([]hostStats, len(perSeed)), make([]simStats, len(perSeed))
	for i, reps := range perSeed {
		host[i], sims[i] = reps[p].host, reps[p].sim
	}
	return host, sims
}

// finish adds the two end-to-end metrics that need the whole run — the
// cross-validation gap and the failed share — and stamps units.
func (res *result) finish(e map[string]value, ref reference) {
	e["xval_gap"] = value{Value: xvalGap(e, ref), N: e["rd"].N}
	e["failed_share"] = value{Value: float64(res.Failed) / float64(res.Attempted), N: res.Attempted}
	for _, m := range endToEndMetrics {
		v := e[m.Name]
		v.Unit = m.Unit
		res.Metrics[m.Name] = v
	}
}

// runTimed is the timed run: tracing and profiling off, round-robin over the
// fixed seed list — two whole passes, then rep by rep while the budget
// lasts — with the calibration kernel interleaved. Every host-time metric is
// computed from the per-seed mean over reps, on the kernel's clock.
func runTimed(w *workload, seed uint64, budget time.Duration) (*result, error) {
	began := time.Now()
	ref, err := w.reference()
	if err != nil {
		return nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	seeds := w.repSeeds(seed)
	perSeed := make([][]rep, len(seeds))
	var work time.Duration
	for n := 0; n < 2*len(seeds) || time.Since(began) < budget; n++ {
		i := n % len(seeds)
		repBegan := time.Now()
		r, err := w.runRep(seeds[i], nil)
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", w.name, i, err)
		}
		perSeed[i] = append(perSeed[i], r)
		work += time.Since(repBegan)
		cal.keepUp(work)
		if i == len(seeds)-1 {
			cal.mark()
		}
	}
	passes := len(perSeed[len(seeds)-1]) // whole passes
	res := &result{Workload: w.name, Seeds: len(seeds), Passes: passes, Speed: cal.speed(), CalibRuns: cal.runs,
		Metrics: map[string]value{}}
	res.tally(w, perSeed)

	mean := make([]hostStats, len(seeds))
	for i, reps := range perSeed {
		mean[i] = meanOf(reps)
	}
	_, sims := passOf(perSeed, 0)
	e := endToEnd(w, mean, sims, res.Speed)
	for _, name := range hostTimed {
		values := make([]float64, passes)
		for p := range values {
			host, _ := passOf(perSeed, p)
			values[p] = endToEnd(w, host, sims, cal.passSpeed(p))[name].Value
		}
		v := e[name]
		v.Spread = quartileSpread(values)
		e[name] = v
	}
	res.finish(e, ref)
	return res, nil
}

// runTraced is the traced run, separate from the timed one: one plain pass
// (calibrated, like a timed one), then one pass with spans around every
// public call and a CPU profile over it, then the layer rigs. The plain pass
// gives the counters and the denominator of the tracing overhead; spans and
// profile give the shares.
func runTraced(w *workload, seed uint64) (*result, []span, error) {
	ref, err := w.reference()
	if err != nil {
		return nil, nil, err
	}
	cal, err := newCalibrator()
	if err != nil {
		return nil, nil, err
	}
	defer cal.close()
	seeds := w.repSeeds(seed)
	plain, err := w.pass(seeds, nil, cal)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	var profile bytes.Buffer
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return nil, nil, err
	}
	traced, err := w.pass(seeds, tr, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	samples, err := parseProfile(profile.Bytes())
	if err != nil {
		return nil, nil, err
	}
	rigs, rigSpans, err := runRigs(seed)
	if err != nil {
		return nil, nil, err
	}

	res := &result{Workload: w.name, Seeds: len(seeds), Passes: 2, Speed: cal.speed(), CalibRuns: cal.runs,
		Metrics: map[string]value{}}
	perSeed := make([][]rep, len(seeds))
	for i := range perSeed {
		perSeed[i] = []rep{plain[i], traced[i]}
	}
	res.tally(w, perSeed)
	host, sims := passOf(perSeed, 0)
	res.finish(endToEnd(w, host, sims, res.Speed), ref)

	layer := rigs
	for _, rows := range []map[string]float64{
		workloadCounters(w, host, sims),
		spanRows(w, tr.spans, host),
		shareRows(cpuShares(samples)),
	} {
		for name, v := range rows {
			layer[name] = v
		}
	}
	var plainDrive, tracedDrive time.Duration
	for i := range plain {
		plainDrive += plain[i].host.drive
		tracedDrive += traced[i].host.drive
	}
	layer["trace.overhead_ratio"] = float64(tracedDrive) / float64(plainDrive)
	layer["scenario.reference_ms"] = float64(ref.hostTime) / 1e6
	for _, m := range perLayerMetrics {
		v, ok := layer[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	// One span list out: the rig's spans follow the workload's, parents
	// re-based.
	spans := tr.spans
	for _, s := range rigSpans {
		if s.Parent >= 0 {
			s.Parent += len(tr.spans)
		}
		spans = append(spans, s)
	}
	return res, spans, nil
}
