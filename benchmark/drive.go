package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	selfemerge "selfemerge"
	"selfemerge/internal/protocol"
	"selfemerge/internal/scenario"
	"selfemerge/internal/stats"
)

// simStats is everything about one rep that must be a pure function of its
// seed: identical on every pass, on every machine, and across any change
// that only claims speed. The digest the harness prints hashes these.
type simStats struct {
	Result                         scenario.Result
	Sent, Recv, Dropped            int
	Deaths, Joins                  int
	Epochs, IdleSkips, MergeAllocs uint64
	Resilience                     selfemerge.Resilience
	// Lags is the sorted list of emergence lags, Emerged().at − Release()
	// in simulated time, over the delivered missions.
	Lags []time.Duration
}

// hostStats is what one pass over one seed cost the host.
type hostStats struct {
	setup time.Duration // scenario.Setup / NewNetwork
	drive time.Duration // Send … Settle, Score and the Emerged checks
	cpu   time.Duration // process user+sys CPU over the drive interval
	sends []time.Duration
	// Allocation counters over the drive interval, and the heap left
	// reachable by a booted network.
	mallocs, bytes uint64
	gcCycles       uint32
	heap           uint64
}

// rep is one pass over one seed.
type rep struct {
	host hostStats
	sim  simStats
	// wrong counts missions whose outcome is incorrect rather than merely
	// lost to the modelled adversary or churn: plaintext mismatch, emergence
	// before the release time, and on bulk-1m (no loss source at all) a
	// non-delivery.
	wrong int
}

// meter measures host time, process CPU and allocation over an interval.
type meter struct {
	mem   runtime.MemStats
	cpu   time.Duration
	began time.Time
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startMeter() *meter {
	m := new(meter)
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.began = time.Now()
	return m
}

func (m *meter) stop(h *hostStats) {
	h.drive = time.Since(m.began)
	h.cpu = cpuTime() - m.cpu
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	h.mallocs = after.Mallocs - m.mem.Mallocs
	h.bytes = after.TotalAlloc - m.mem.TotalAlloc
	h.gcCycles = after.NumGC - m.mem.NumGC
}

// liveHeap collects garbage (the previous rep's network included) and
// reports what stays reachable. Taken before and after setup, the difference
// is the resident state of the network just booted, whatever the harness
// itself is holding. Traced passes skip it (tr != nil), so the CPU profile's
// collection share is the program's own and not the harness's forced cycles.
func liveHeap(tr *tracer) uint64 {
	if tr != nil {
		return 0
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runRep runs one pass of the workload over one scenario seed.
func (w *workload) runRep(seed uint64, tr *tracer) (rep, error) {
	if w.scenario == nil {
		return runBulk(seed, tr)
	}
	cfg := *w.scenario
	cfg.Seed = seed
	return runScenario(cfg, tr)
}

// runScenario is scenario.Measure's setup → drive → score sequence with the
// harness's clocks between the phases. The launch loop mirrors
// scenario.Drive statement for statement (the product-path test holds the
// two together) because the benchmark times each Send on its own.
func runScenario(cfg scenario.Config, tr *tracer) (rep, error) {
	var r rep
	idle := liveHeap(tr)
	sp := tr.begin("setup", -1)
	began := time.Now()
	cfg, net, err := scenario.Setup(cfg)
	r.host.setup = time.Since(began)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	r.host.heap = liveHeap(tr) - idle

	m := startMeter()
	driveSpan := tr.begin("drive", -1)
	rng := stats.NewRNG(cfg.Seed ^ 0x5ce7a110_c0ffee)
	var gap time.Duration
	if cfg.Missions > 1 {
		gap = cfg.Stagger / time.Duration(cfg.Missions)
	}
	msgs := make([]*selfemerge.Message, cfg.Missions)
	r.host.sends = make([]time.Duration, cfg.Missions)
	for i := range msgs {
		var id protocol.MissionID
		binary.LittleEndian.PutUint64(id[:8], rng.Uint64())
		binary.LittleEndian.PutUint64(id[8:], rng.Uint64())
		sp := tr.begin("send", i)
		sent := time.Now()
		msg, err := net.Send([]byte(fmt.Sprintf("mission-%d", i)), cfg.Emerging,
			selfemerge.WithPlan(cfg.Plan), selfemerge.WithMissionID(id))
		r.host.sends[i] = time.Since(sent)
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("dispatching mission %d: %w", i, err)
		}
		msgs[i] = msg
		if gap > 0 && i < cfg.Missions-1 {
			sp := tr.begin("run", -1)
			net.RunFor(gap)
			tr.end(sp)
		}
	}
	sp = tr.begin("run", -1)
	net.RunUntil(msgs[len(msgs)-1].Release().Add(time.Minute))
	net.Settle()
	tr.end(sp)

	sp = tr.begin("score", -1)
	r.sim.Result = scenario.Score(cfg, net, msgs)
	tr.end(sp)
	delivered := 0
	for i, msg := range msgs {
		sp := tr.begin("emerged", i)
		plain, at, ok := net.Emerged(msg)
		tr.end(sp)
		if !ok {
			continue // lost to the modelled adversary, churn or routing: rd's business
		}
		if at.Before(msg.Release()) || !bytes.Equal(plain, []byte(fmt.Sprintf("mission-%d", i))) {
			r.wrong++
			continue
		}
		delivered++
		r.sim.Lags = append(r.sim.Lags, at.Sub(msg.Release()))
	}
	tr.end(driveSpan)
	m.stop(&r.host)
	if delivered != r.sim.Result.Delivered {
		// The harness and scenario.Score disagree on what emerged.
		r.wrong += cfg.Missions
	}
	r.sim.collect(net)
	return r, nil
}

// runBulk is the BenchmarkMissionAllocs cycle with a real payload: one
// 60-node retry-hardened network, 50 sequential 1 MiB missions, each checked
// byte for byte and deleted from the cloud before the next.
func runBulk(seed uint64, tr *tracer) (rep, error) {
	var r rep
	payload := make([]byte, bulkPayload)
	if _, err := stats.NewByteStream(seed).Read(payload); err != nil {
		return r, err
	}
	idle := liveHeap(tr)
	sp := tr.begin("setup", -1)
	began := time.Now()
	net, err := selfemerge.NewNetwork(selfemerge.NetworkConfig{Nodes: bulkNodes, Retry: 3, Seed: seed})
	r.host.setup = time.Since(began)
	tr.end(sp)
	if err != nil {
		return r, err
	}
	r.host.heap = liveHeap(tr) - idle

	m := startMeter()
	driveSpan := tr.begin("drive", -1)
	r.host.sends = make([]time.Duration, bulkMissions)
	r.sim.Result.Missions = bulkMissions
	for i := 0; i < bulkMissions; i++ {
		// Every mission seals a distinct plaintext, so a stale cloud object
		// can never pass the equality check.
		binary.LittleEndian.PutUint64(payload, uint64(i))
		sp := tr.begin("send", i)
		sent := time.Now()
		msg, err := net.Send(payload, bulkEmerging, selfemerge.WithPlan(joint2x2))
		r.host.sends[i] = time.Since(sent)
		tr.end(sp)
		if err != nil {
			return r, fmt.Errorf("dispatching mission %d: %w", i, err)
		}
		sp = tr.begin("run", i)
		net.RunUntil(msg.Release().Add(time.Minute))
		net.Settle()
		tr.end(sp)
		sp = tr.begin("emerged", i)
		plain, at, ok := net.Emerged(msg)
		tr.end(sp)
		net.Cloud().Delete(msg.CloudObject())
		if !ok || at.Before(msg.Release()) || !bytes.Equal(plain, payload) {
			r.wrong++
			continue
		}
		r.sim.Result.Delivered++
		r.sim.Result.Succeeded++
		r.sim.Lags = append(r.sim.Lags, at.Sub(msg.Release()))
	}
	tr.end(driveSpan)
	m.stop(&r.host)
	r.sim.collect(net)
	return r, nil
}

// collect reads the network's public counters at the end of a rep.
func (s *simStats) collect(net *selfemerge.Network) {
	s.Sent, s.Recv, s.Dropped = net.FabricStats()
	s.Deaths, s.Joins = net.ChurnEvents()
	s.Epochs, s.IdleSkips, s.MergeAllocs = net.LoopStats()
	s.Resilience = net.ResilienceStats()
	sort.Slice(s.Lags, func(i, j int) bool { return s.Lags[i] < s.Lags[j] })
}
