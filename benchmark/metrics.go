package main

// metricDef names one ledger metric. Later issues refer to these names
// verbatim.
type metricDef struct {
	Name string
	Unit string
	// HigherBetter is the direction: throughput and resilience ratios rise,
	// everything else falls.
	HigherBetter bool
	// Bound is how far the metric may worsen between two ledgers of the same
	// seed before -compare says regressed: a share of the base value, or an
	// absolute difference when Abs is set. Zero on per-layer metrics, which
	// explain a movement but never gate one.
	Bound float64
	Abs   bool
	// Source is E for end-to-end metrics and, per layer: R a rig timing
	// calls into the layer's exported functions, W a counter read from the
	// network's public stats on the workload, S a harness span around a
	// public call, P a share of the traced run's CPU profile.
	Source string
	// Driver is the end-to-end metric's bound in BENCHMARK.json: the share
	// by which the median over runs of *different* seeds, on a shared box,
	// may worsen before the driver rejects a change. Sized at about three
	// times the measured seed-to-seed quartile spread, capped at the
	// contract's 0.25. Zero means the metric cannot be bounded that way — its
	// healthy value is zero, or its spread on this box passes 0.25 — so the
	// one-workload runs report it with the traced metrics, where nothing is
	// bounded.
	Driver float64
	Doc    string
}

func (m metricDef) better() string {
	if m.HigherBetter {
		return "higher"
	}
	return "lower"
}

var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Bound: 0.10, Source: "E", Driver: 0.25, Doc: "median over seeds of the mean scenario.Setup / NewNetwork host time (boot, bootstrap, one simulated minute of settling), on the calibration kernel's clock"},
	{Name: "missions_per_s", Unit: "1/s", HigherBetter: true, Bound: 0.10, Source: "E", Driver: 0.25, Doc: "missions / summed per-seed mean host time of drive+score (Send, RunFor, RunUntil, Settle, Score, Emerged), on the calibration kernel's clock"},
	{Name: "cpu_ms_per_mission", Unit: "ms", Bound: 0.10, Source: "E", Driver: 0.25, Doc: "process user+sys CPU (getrusage) over drive+score per mission, on the calibration kernel's clock: counts GC and loop threads"},
	{Name: "send_us_p50", Unit: "us", Bound: 0.15, Source: "E", Doc: "median over missions of the mean host time of one Network.Send (seal, plan, dispatch kick-off), on the calibration kernel's clock"},
	{Name: "allocs_per_mission", Unit: "count", Bound: 0.02, Source: "E", Driver: 0.05, Doc: "heap allocations (MemStats.Mallocs) over drive+score per mission"},
	{Name: "kib_per_mission", Unit: "KiB", Bound: 0.02, Source: "E", Driver: 0.08, Doc: "bytes allocated (MemStats.TotalAlloc) over drive+score per mission"},
	{Name: "live_heap_mb", Unit: "MB", Bound: 0.05, Source: "E", Driver: 0.05, Doc: "HeapAlloc after a forced GC right after setup, less the same right before it: resident state of a booted network"},
	{Name: "datagrams_per_mission", Unit: "count", Bound: 0.02, Source: "E", Driver: 0.15, Doc: "FabricStats sent at the end of the rep per mission (simulation statistic, exact per seed; boot traffic included)"},
	{Name: "emerge_lag_ms_p50", Unit: "sim_ms", Bound: 0.05, Source: "E", Driver: 0.1, Doc: "median over delivered missions of Emerged().at - Release(), in simulated time"},
	{Name: "emerge_lag_ms_p90", Unit: "sim_ms", Bound: 0.05, Source: "E", Driver: 0.25, Doc: "the same at p90 (or the highest percentile below it that leaves ten samples beyond)"},
	{Name: "rd", Unit: "ratio", HigherBetter: true, Bound: 0.02, Abs: true, Source: "E", Driver: 0.25, Doc: "missions delivered on time / attempted (scenario.Score semantics)"},
	{Name: "rr", Unit: "ratio", HigherBetter: true, Bound: 0.02, Abs: true, Source: "E", Driver: 0.1, Doc: "1 - missions released ahead / attempted"},
	{Name: "xval_gap", Unit: "ratio", Bound: 0.05, Abs: true, Source: "E", Doc: "max(|live release rate - MC|, |live deliver rate - MC|) against cfg.References() at 20000 trials, fixed seed (1.0/1.0 for bulk-1m): simulator-vs-reference error"},
	{Name: "failed_share", Unit: "ratio", Bound: 0, Abs: true, Source: "E", Doc: "wrong outcomes / attempted: plaintext mismatch, emergence before Release(), a deterministic field differing between passes of one seed, a non-delivery on bulk-1m"},
}

var perLayerMetrics = []metricDef{
	{Name: "seal.encrypt_1m_us", Unit: "us", Source: "R", Doc: "Sealer.Encrypt of 1 MiB"},
	{Name: "seal.decrypt_1m_us", Unit: "us", Source: "R", Doc: "Sealer.Decrypt of 1 MiB"},
	{Name: "seal.encrypt_1k_ns", Unit: "ns", Source: "R", Doc: "Sealer.Encrypt of 1 KiB"},
	{Name: "seal.encrypt_allocs", Unit: "count", Source: "R", Doc: "allocations of one 1 KiB Encrypt"},
	{Name: "cloud.put_get_1m_us", Unit: "us", Source: "R", Doc: "Store.Put + Get + Delete of 1 MiB"},

	{Name: "onion.build_ns", Unit: "ns", Source: "R", Doc: "BuildSealers, 2 layers x 2 hops"},
	{Name: "onion.build_allocs", Unit: "count", Source: "R", Doc: "allocations of one build"},
	{Name: "onion.peel_ns", Unit: "ns", Source: "R", Doc: "PeelSealer of the outer layer"},
	{Name: "onion.peel_allocs", Unit: "count", Source: "R", Doc: "allocations of one peel"},

	{Name: "shamir.split_ns", Unit: "ns", Source: "R", Doc: "SplitRand (2,4) over 32 B"},
	{Name: "shamir.split_allocs", Unit: "count", Source: "R", Doc: "allocations of one split"},
	{Name: "shamir.combine_ns", Unit: "ns", Source: "R", Doc: "Combine of 2 shares"},

	{Name: "protocol.packet_encode_ns", Unit: "ns", Source: "R", Doc: "Packet.AppendEncode, 200 B data"},
	{Name: "protocol.packet_decode_ns", Unit: "ns", Source: "R", Doc: "DecodePacket of the same"},
	{Name: "protocol.packet_allocs", Unit: "count", Source: "R", Doc: "allocations of encode + decode"},
	{Name: "protocol.dispatch_us", Unit: "us", Source: "R", Doc: "Sender.Dispatch, joint 2x2, 60-node cluster (lookups drained untimed)"},
	{Name: "protocol.dispatch_allocs", Unit: "count", Source: "R", Doc: "allocations of one joint dispatch"},
	{Name: "protocol.dispatch_share_us", Unit: "us", Source: "R", Doc: "Sender.Dispatch, key-share (2,4)"},
	{Name: "protocol.dispatch_share_allocs", Unit: "count", Source: "R", Doc: "allocations of one share dispatch"},
	{Name: "protocol.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/protocol"},

	{Name: "dht.msg_encode_ns", Unit: "ns", Source: "R", Doc: "Message.AppendEncode, FIND_NODE_RESP with 20 contacts"},
	{Name: "dht.msg_decode_ns", Unit: "ns", Source: "R", Doc: "DecodeMessageInto of the same"},
	{Name: "dht.msg_allocs", Unit: "count", Source: "R", Doc: "allocations of encode + decode"},
	{Name: "dht.table_observe_ns", Unit: "ns", Source: "R", Doc: "Table.Observe on a table fed 2000 IDs"},
	{Name: "dht.table_closest_ns", Unit: "ns", Source: "R", Doc: "Table.AppendClosest(20) on the same table"},
	{Name: "dht.lookup_us", Unit: "us", Source: "R", Doc: "Node.Lookup to completion on a 256-node simnet cluster"},
	{Name: "dht.lookup_datagrams", Unit: "count", Source: "R", Doc: "datagrams sent per lookup"},
	{Name: "dht.lookup_allocs", Unit: "count", Source: "R", Doc: "allocations per lookup"},
	{Name: "dht.lookup_exact_ratio", Unit: "ratio", HigherBetter: true, Source: "R", Doc: "lookups whose first contact is the true XOR-closest cluster ID"},
	{Name: "dht.lookup_handler_share", Unit: "ratio", Source: "S", Doc: "share of a lookup's host time inside dht message handlers (wrapped endpoint)"},
	{Name: "dht.bootstrap_us_per_node", Unit: "us", Source: "R", Doc: "build + bootstrap of the 256-node cluster per node"},
	{Name: "dht.retries_per_mission", Unit: "count", Source: "W", Doc: "ResilienceStats.Retries per mission"},
	{Name: "dht.recovered_per_mission", Unit: "count", Source: "W", Doc: "RPCs recovered by a re-send per mission"},
	{Name: "dht.dup_deliveries_per_mission", Unit: "count", Source: "W", Doc: "receiver-suppressed duplicate deliveries per mission"},
	{Name: "dht.retry_useful_ratio", Unit: "ratio", HigherBetter: true, Source: "W", Doc: "recovered / retries (0 when nothing retried)"},
	{Name: "dht.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/dht"},

	{Name: "simnet.msg_ns", Unit: "ns", Source: "R", Doc: "send + deliver of one 256 B datagram, 64 endpoints"},
	{Name: "simnet.msg_allocs", Unit: "count", Source: "R", Doc: "allocations per datagram"},
	{Name: "simnet.handoff_msg_ns", Unit: "ns", Source: "R", Doc: "Partition cross-shard send, Flush, deliver per datagram"},
	{Name: "simnet.lookup_send_share", Unit: "ratio", Source: "S", Doc: "share of a lookup's host time inside Endpoint.Send (wrapped endpoint)"},
	{Name: "simnet.dropped_per_mission", Unit: "count", Source: "W", Doc: "FabricStats dropped per mission"},
	{Name: "simnet.delivery_ratio", Unit: "ratio", HigherBetter: true, Source: "W", Doc: "FabricStats delivered / sent"},
	{Name: "simnet.merge_allocs", Unit: "count", Source: "W", Doc: "hand-off outbox growths per rep (LoopStats)"},
	{Name: "simnet.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/transport/simnet"},

	{Name: "sim.schedule_run_ns", Unit: "ns", Source: "R", Doc: "ScheduleArg + dispatch per event with 10k events pending"},
	{Name: "sim.timer_stop_ns", Unit: "ns", Source: "R", Doc: "AfterFuncArg + Stop"},
	{Name: "sim.epoch_ns", Unit: "ns", Source: "R", Doc: "Lockstep.RunUntil over 2 near-idle simulators, per epoch"},
	{Name: "sim.lookup_loop_share", Unit: "ratio", Source: "S", Doc: "share of a lookup's host time in neither handlers nor sends: event loop and fabric delivery"},
	{Name: "sim.epochs_per_mission", Unit: "count", Source: "W", Doc: "LoopStats epochs per mission"},
	{Name: "sim.idle_skip_ratio", Unit: "ratio", HigherBetter: true, Source: "W", Doc: "idle-skipped epochs / epochs (0 on the classic loop)"},
	{Name: "sim.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/sim"},

	{Name: "fault.judge_ns", Unit: "ns", Source: "R", Doc: "Engine.Judge, burst profile at severity 0.5"},
	{Name: "fault.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/fault"},
	{Name: "churn.deaths_per_mission", Unit: "count", Source: "W", Doc: "ChurnEvents deaths per mission"},
	{Name: "churn.joins_per_mission", Unit: "count", Source: "W", Doc: "ChurnEvents joins per mission"},
	{Name: "adversary.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/adversary"},
	{Name: "crypto.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of seal + onion + shamir and the crypto/* code under them"},

	{Name: "network.send_us_p99", Unit: "us", Source: "S", Doc: "p99 of the send spans (or the highest percentile below it that leaves ten samples beyond)"},
	{Name: "network.send_share", Unit: "ratio", Source: "S", Doc: "self time of send spans / drive span"},
	{Name: "network.run_share", Unit: "ratio", Source: "S", Doc: "self time of RunFor/RunUntil/Settle spans / drive span"},
	{Name: "network.emerged_share", Unit: "ratio", Source: "S", Doc: "self time of Emerged spans / drive span"},
	{Name: "network.setup_us_per_node", Unit: "us", Source: "S", Doc: "setup span / nodes"},
	{Name: "network.heap_kib_per_node", Unit: "KiB", Source: "S", Doc: "live heap after setup / nodes"},
	{Name: "network.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of the root package and the churn, scenario and stats packages it composes"},
	{Name: "cloud.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of internal/cloud (payload copies)"},

	{Name: "scenario.score_us_per_mission", Unit: "us", Source: "S", Doc: "score span / missions (0 on bulk-1m, which has no Score)"},
	{Name: "scenario.reference_ms", Unit: "ms", Source: "S", Doc: "host time of the 20000-trial Monte Carlo references (0 on bulk-1m)"},
	{Name: "mc.trials_per_s", Unit: "1/s", HigherBetter: true, Source: "R", Doc: "mc.Estimate, joint 2x2 at the steady-120 environment, one worker"},
	{Name: "experiment.points_per_s", Unit: "1/s", HigherBetter: true, Source: "R", Doc: "Runner.Run over a 12-point closed-form sweep: runner overhead"},

	{Name: "runtime.gc_share", Unit: "ratio", Source: "P", Doc: "CPU share of garbage collection (mark, sweep, scavenge, assists)"},
	{Name: "runtime.malloc_share", Unit: "ratio", Source: "P", Doc: "CPU share of runtime.mallocgc outside collection"},
	{Name: "runtime.other_share", Unit: "ratio", Source: "P", Doc: "CPU share of the runtime with no program frame below it (scheduler, timers)"},
	{Name: "sync.mutex_share", Unit: "ratio", Source: "P", Doc: "CPU share of sync.Mutex/RWMutex Lock/Unlock: the price of deployment-shaped locking inside a single-threaded loop"},
	{Name: "other.cpu_share", Unit: "ratio", Source: "P", Doc: "CPU share of the harness itself"},
	{Name: "runtime.gc_cycles_per_mission", Unit: "count", Source: "W", Doc: "MemStats.NumGC over drive+score per mission"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Source: "S", Doc: "traced / untraced drive host time of the same seeds"},
}

// allMetrics is the whole ledger: end-to-end first, then per layer.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...)
}

// timedMetrics is what a one-workload timed run reports: the end-to-end
// metrics BENCHMARK.json bounds.
func timedMetrics() []metricDef {
	var out []metricDef
	for _, m := range endToEndMetrics {
		if m.Driver > 0 {
			out = append(out, m)
		}
	}
	return out
}

// tracedMetrics is what a one-workload traced run reports: every per-layer
// metric and the end-to-end ones BENCHMARK.json cannot bound.
func tracedMetrics() []metricDef {
	out := append([]metricDef(nil), perLayerMetrics...)
	for _, m := range endToEndMetrics {
		if m.Driver == 0 {
			out = append(out, m)
		}
	}
	return out
}
