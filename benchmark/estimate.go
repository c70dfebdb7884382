package main

import (
	"math"
	"sort"
	"time"
)

// value is one reported number. N is the sample count behind it; Spread, on
// host-time metrics of a timed run, is the quartile spread of the metric
// computed on each whole pass alone (at that pass's own host speed), as a
// share of their median — the run's own noise, which -compare needs to tell
// a regression from an unresolved row.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// meanOf folds the reps over one seed into the per-seed mean of every host
// quantity — the estimator of all host-time metrics, together with the
// calibration kernel's mean (see calib.go). Sends are averaged mission by
// mission.
func meanOf(reps []rep) hostStats {
	n := len(reps)
	mean := hostStats{sends: make([]time.Duration, len(reps[0].host.sends))}
	for _, r := range reps {
		h := r.host
		mean.setup += h.setup
		mean.drive += h.drive
		mean.cpu += h.cpu
		mean.mallocs += h.mallocs
		mean.bytes += h.bytes
		mean.gcCycles += h.gcCycles
		mean.heap += h.heap
		for i := range mean.sends {
			mean.sends[i] += h.sends[i]
		}
	}
	mean.setup /= time.Duration(n)
	mean.drive /= time.Duration(n)
	mean.cpu /= time.Duration(n)
	mean.mallocs /= uint64(n)
	mean.bytes /= uint64(n)
	mean.gcCycles /= uint32(n)
	mean.heap /= uint64(n)
	for i := range mean.sends {
		mean.sends[i] /= time.Duration(n)
	}
	return mean
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(idx, len(sorted)-1))]
}

// tailQuantile lowers q until at least ten of n samples lie beyond it: a
// tail percentile with fewer samples beyond is one outlier's value, not a
// property of the distribution. It never goes below the median.
func tailQuantile(n int, q float64) float64 {
	if float64(n)*(1-q) >= 10 {
		return q
	}
	return max(0.5, 1-10/float64(n))
}

// quartiles returns the first quartile, median and third quartile of values
// exactly as Python's statistics.quantiles(values, n=4) and
// statistics.median compute them, so the spreads printed here are the ones
// the acceptance procedure measures.
func quartiles(values []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	switch {
	case n == 0:
		return 0, 0, 0
	case n == 1:
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	med = data[n/2]
	if n%2 == 0 {
		med = (data[n/2-1] + data[n/2]) / 2
	}
	return cut(1), med, cut(3)
}

// quartileSpread is (Q3 - Q1) / median.
func quartileSpread(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// reference is the Monte Carlo counterpart of a workload's live rates.
type reference struct {
	release, deliver float64
	hostTime         time.Duration
}

// reference estimates the workload's matched Monte Carlo references once, at
// 20000 trials under a fixed seed: the model side of xval_gap must not move
// with the run seed. bulk-1m has no loss source, so its reference is exact.
func (w *workload) reference() (reference, error) {
	if w.scenario == nil {
		return reference{release: 0, deliver: 1}, nil
	}
	cfg := *w.scenario
	cfg.MCTrials, cfg.Seed = 20000, 2017
	began := time.Now()
	relRef, delRef := cfg.References()
	rel, err := relRef.Estimate()
	if err != nil {
		return reference{}, err
	}
	del := rel
	if delRef.Key() != relRef.Key() {
		if del, err = delRef.Estimate(); err != nil {
			return reference{}, err
		}
	}
	return reference{release: 1 - rel.Rr(), deliver: del.Rd(), hostTime: time.Since(began)}, nil
}

// endToEnd computes the end-to-end metrics of one set of per-seed host and
// simulation statistics (the per-seed means of a timed run, or one pass
// alone). Host times are reported on the calibration kernel's clock: measured
// time x speed.
func endToEnd(w *workload, host []hostStats, sims []simStats, speed float64) map[string]value {
	var (
		drive, cpu                time.Duration
		mallocs, bytes, heap      uint64
		sent, delivered, released int
		setups, sends, lags       []float64
	)
	seeds := len(host)
	n := seeds * w.missions()
	missions := float64(n)
	for i, h := range host {
		setups = append(setups, h.setup.Seconds()*speed)
		drive += h.drive
		cpu += h.cpu
		mallocs += h.mallocs
		bytes += h.bytes
		heap += h.heap
		for _, s := range h.sends {
			sends = append(sends, float64(s)/1e3*speed)
		}
		s := sims[i]
		sent += s.Sent
		delivered += s.Result.Delivered
		released += s.Result.Released
		for _, l := range s.Lags {
			lags = append(lags, float64(l)/1e6)
		}
	}
	sort.Float64s(setups)
	sort.Float64s(sends)
	sort.Float64s(lags)
	return map[string]value{
		"setup_s":               {Value: quantile(setups, 0.5), N: seeds},
		"missions_per_s":        {Value: missions / (drive.Seconds() * speed), N: n},
		"cpu_ms_per_mission":    {Value: float64(cpu) / 1e6 * speed / missions, N: n},
		"send_us_p50":           {Value: quantile(sends, 0.5), N: len(sends)},
		"allocs_per_mission":    {Value: float64(mallocs) / missions, N: n},
		"kib_per_mission":       {Value: float64(bytes) / 1024 / missions, N: n},
		"live_heap_mb":          {Value: float64(heap) / 1e6 / float64(seeds), N: seeds},
		"datagrams_per_mission": {Value: float64(sent) / missions, N: n},
		"emerge_lag_ms_p50":     {Value: quantile(lags, 0.5), N: len(lags)},
		"emerge_lag_ms_p90":     {Value: quantile(lags, tailQuantile(len(lags), 0.9)), N: len(lags)},
		"rd":                    {Value: float64(delivered) / missions, N: n},
		"rr":                    {Value: 1 - float64(released)/missions, N: n},
	}
}

// hostTimed names the end-to-end metrics that carry host noise; the rest are
// simulation statistics, identical on every pass.
var hostTimed = []string{"setup_s", "missions_per_s", "cpu_ms_per_mission", "send_us_p50",
	"allocs_per_mission", "kib_per_mission", "live_heap_mb"}

// xvalGap is the larger of the release-rate and deliver-rate distances
// between the live run and its Monte Carlo reference.
func xvalGap(e map[string]value, ref reference) float64 {
	return max(math.Abs((1-e["rr"].Value)-ref.release), math.Abs(e["rd"].Value-ref.deliver))
}

// workloadCounters computes the W rows: counters the network's public stats
// expose, summed over the seeds of one pass.
func workloadCounters(w *workload, host []hostStats, sims []simStats) map[string]float64 {
	var t simStats
	var gc uint32
	for i, s := range sims {
		t.Sent += s.Sent
		t.Recv += s.Recv
		t.Dropped += s.Dropped
		t.Deaths += s.Deaths
		t.Joins += s.Joins
		t.Epochs += s.Epochs
		t.IdleSkips += s.IdleSkips
		t.MergeAllocs += s.MergeAllocs
		t.Resilience.Add(s.Resilience)
		gc += host[i].gcCycles
	}
	missions := float64(len(sims) * w.missions())
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"dht.retries_per_mission":        float64(t.Resilience.Retries) / missions,
		"dht.recovered_per_mission":      float64(t.Resilience.Recovered) / missions,
		"dht.dup_deliveries_per_mission": float64(t.Resilience.Duplicates) / missions,
		"dht.retry_useful_ratio":         div(float64(t.Resilience.Recovered), float64(t.Resilience.Retries)),
		"simnet.dropped_per_mission":     float64(t.Dropped) / missions,
		"simnet.delivery_ratio":          div(float64(t.Recv), float64(t.Sent)),
		"simnet.merge_allocs":            float64(t.MergeAllocs) / float64(len(sims)),
		"sim.epochs_per_mission":         float64(t.Epochs) / missions,
		"sim.idle_skip_ratio":            div(float64(t.IdleSkips), float64(t.Epochs)),
		"churn.deaths_per_mission":       float64(t.Deaths) / missions,
		"churn.joins_per_mission":        float64(t.Joins) / missions,
		"runtime.gc_cycles_per_mission":  float64(gc) / missions,
	}
}

// spanRows computes the S rows from the traced pass's spans.
func spanRows(w *workload, spans []span, host []hostStats) map[string]float64 {
	self := selfTimes(spans)
	var driveTotal, setupTotal, scoreTotal time.Duration
	var sends []float64
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Name {
		case "drive":
			driveTotal += d
		case "setup":
			setupTotal += d
		case "score":
			scoreTotal += d
		case "send":
			sends = append(sends, float64(d)/1e3)
		}
	}
	sort.Float64s(sends)
	var heap uint64
	for _, h := range host {
		heap += h.heap
	}
	nodes := bulkNodes
	if w.scenario != nil {
		nodes = w.scenario.Nodes
	}
	perNode := float64(len(host) * nodes)
	return map[string]float64{
		"network.send_us_p99":           quantile(sends, tailQuantile(len(sends), 0.99)),
		"network.send_share":            float64(self["send"]) / float64(driveTotal),
		"network.run_share":             float64(self["run"]) / float64(driveTotal),
		"network.emerged_share":         float64(self["emerged"]) / float64(driveTotal),
		"network.setup_us_per_node":     float64(setupTotal) / 1e3 / perNode,
		"network.heap_kib_per_node":     float64(heap) / 1024 / perNode,
		"scenario.score_us_per_mission": float64(scoreTotal) / 1e3 / float64(len(host)*w.missions()),
	}
}

// shareRows maps the profile's classification onto the P rows.
func shareRows(shares map[string]float64) map[string]float64 {
	rows := map[string]string{
		"protocol": "protocol.cpu_share", "dht": "dht.cpu_share", "simnet": "simnet.cpu_share",
		"sim": "sim.cpu_share", "fault": "fault.cpu_share", "adversary": "adversary.cpu_share",
		"crypto": "crypto.cpu_share", "network": "network.cpu_share", "cloud": "cloud.cpu_share",
		"gc": "runtime.gc_share", "malloc": "runtime.malloc_share", "runtime": "runtime.other_share",
		"mutex": "sync.mutex_share", "other": "other.cpu_share",
	}
	out := make(map[string]float64, len(rows))
	for class, name := range rows {
		out[name] = shares[class]
	}
	return out
}
