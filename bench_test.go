package selfemerge

// The benchmarks in this file regenerate every figure of the paper's
// evaluation (Section IV) — run them with:
//
//	go test -bench=Figure -benchmem
//
// Each figure benchmark runs its figure's preset sweep (experiment.Presets)
// once per iteration at reduced resolution (`emergesim fig6a` ... `fig8` run
// the same presets at full resolution) and reports the paper-comparable
// headline numbers, looked up at exact grid points, as custom metrics. Microbenchmarks for the substrates (Shamir, onion, sealing, DHT
// lookup, planner, Monte Carlo trial throughput) and the share-death
// ablation follow.

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/experiment"
	"selfemerge/internal/mc"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// runFigure runs the preset that draws panel at the benchmarks' resolution:
// 300 trials per point, a p step of 0.05 and seed 2017. A nonzero alpha
// replaces the preset's churn severity.
func runFigure(b *testing.B, panel string, alpha float64) *experiment.ResultSet {
	b.Helper()
	pr, ok := experiment.PresetFor(panel)
	if !ok {
		b.Fatalf("no preset draws %s", panel)
	}
	sw := pr.Sweep(0.05)
	sw.Seed = 2017
	if alpha != 0 {
		sw.Base.Alpha = alpha
	}
	rs, err := experiment.Runner{Estimator: experiment.MonteCarlo{Trials: 300}}.Run(sw)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// resultAt returns the figure's result at exactly (series, x), x a grid
// value.
func resultAt(b *testing.B, rs *experiment.ResultSet, series string, x float64) experiment.Result {
	b.Helper()
	for _, res := range rs.Results {
		if res.Point.Series == series && math.Abs(res.Point.X-x) < 1e-9 {
			return res
		}
	}
	b.Fatalf("%s has no point at (%s, %v)", rs.Sweep.Name, series, x)
	return experiment.Result{}
}

// BenchmarkFigure6a — attack resilience vs p, 10,000-node DHT.
func BenchmarkFigure6a(b *testing.B) {
	var joint034, joint042 float64
	for i := 0; i < b.N; i++ {
		rs := runFigure(b, "fig6a", 0)
		joint034, joint042 = resultAt(b, rs, "joint", 0.35).MinR(), resultAt(b, rs, "joint", 0.4).MinR()
	}
	b.ReportMetric(joint034, "joint-R@p0.35")
	b.ReportMetric(joint042, "joint-R@p0.40")
}

// BenchmarkFigure6b — required nodes C vs p, 10,000-node DHT.
func BenchmarkFigure6b(b *testing.B) {
	var cost int
	for i := 0; i < b.N; i++ {
		cost = resultAt(b, runFigure(b, "fig6b", 0), "joint", 0.35).Cost
	}
	b.ReportMetric(float64(cost), "joint-C@p0.35")
}

// BenchmarkFigure6c — attack resilience vs p, 100-node DHT.
func BenchmarkFigure6c(b *testing.B) {
	var joint float64
	for i := 0; i < b.N; i++ {
		joint = resultAt(b, runFigure(b, "fig6c", 0), "joint", 0.3).MinR()
	}
	b.ReportMetric(joint, "joint-R@p0.30")
}

// BenchmarkFigure6d — required nodes C vs p, 100-node DHT.
func BenchmarkFigure6d(b *testing.B) {
	var cost int
	for i := 0; i < b.N; i++ {
		cost = resultAt(b, runFigure(b, "fig6d", 0), "joint", 0.3).Cost
	}
	b.ReportMetric(float64(cost), "joint-C@p0.30")
}

// benchmarkFigure7 runs one churn panel and reports share vs joint at p=0.2.
func benchmarkFigure7(b *testing.B, alpha float64) {
	b.Helper()
	var share, joint float64
	for i := 0; i < b.N; i++ {
		rs := runFigure(b, "fig7", alpha)
		share, joint = resultAt(b, rs, "share", 0.2).R, resultAt(b, rs, "joint", 0.2).R
	}
	b.ReportMetric(share, "share-R@p0.2")
	b.ReportMetric(joint, "joint-R@p0.2")
}

// BenchmarkFigure7a..7d — churn resilience vs p at alpha = 1, 2, 3, 5.
func BenchmarkFigure7a(b *testing.B) { benchmarkFigure7(b, 1) }
func BenchmarkFigure7b(b *testing.B) { benchmarkFigure7(b, 2) }
func BenchmarkFigure7c(b *testing.B) { benchmarkFigure7(b, 3) }
func BenchmarkFigure7d(b *testing.B) { benchmarkFigure7(b, 5) }

// BenchmarkFigure8 — key share routing cost: R vs p for 100..10000
// available nodes at alpha = 3.
func BenchmarkFigure8(b *testing.B) {
	metrics := map[string]float64{}
	for i := 0; i < b.N; i++ {
		rs := runFigure(b, "fig8", 0)
		for _, label := range []string{"100", "1000", "10000"} {
			metrics["R@p0.15-n"+label] = resultAt(b, rs, label, 0.15).R
		}
	}
	for name, v := range metrics {
		b.ReportMetric(v, name)
	}
}

// BenchmarkPlannerJoint measures the (k, l) search at the paper's scale.
func BenchmarkPlannerJoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanMultipath(core.SchemeJoint, 0.3, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlannerKeyShare measures Algorithm 1 plus the shape search.
func BenchmarkPlannerKeyShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanKeyShare(0.3, 3, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCTrialJoint measures Monte Carlo trial throughput for a large
// joint topology under churn (the hot loop of Figure 7).
func BenchmarkMCTrialJoint(b *testing.B) {
	plan := core.Plan{Scheme: core.SchemeJoint, K: 9, L: 150}
	env := mc.Env{Population: 10000, Malicious: 3000, Alpha: 3}
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.RunTrial(plan, env, rng)
	}
}

// BenchmarkShamirSplit / Combine — the share scheme's crypto inner loop
// (32-byte keys, the paper's m=2, n=3 example and a wider (10, 30)).
func BenchmarkShamirSplit(b *testing.B) {
	secret := make([]byte, seal.KeySize)
	for i := 0; i < b.N; i++ {
		if _, err := shamir.Split(secret, 10, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShamirCombine(b *testing.B) {
	secret := make([]byte, seal.KeySize)
	shares, err := shamir.Split(secret, 10, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shamir.Combine(shares[:10], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnionBuild / Peel — wrapping and unwrapping a 10-layer onion.
func onionFixture(b *testing.B) ([]onion.Layer, []seal.Key) {
	b.Helper()
	const layers = 10
	ls := make([]onion.Layer, layers)
	keys := make([]seal.Key, layers)
	hop := dht.IDFromKey([]byte("hop"))
	for i := range ls {
		ls[i] = onion.Layer{NextHops: [][]byte{hop[:], hop[:]}}
		k, err := seal.NewKey()
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
	}
	ls[layers-1].Payload = make([]byte, seal.KeySize)
	return ls, keys
}

func BenchmarkOnionBuild(b *testing.B) {
	ls, keys := onionFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := onion.Build(ls, keys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnionPeel(b *testing.B) {
	ls, keys := onionFixture(b)
	wrapped, err := onion.Build(ls, keys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := onion.Peel(keys[0], wrapped); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeal measures AES-GCM sealing of a 1 KiB payload.
func BenchmarkSeal(b *testing.B) {
	key, err := seal.NewKey()
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 1024)
	b.SetBytes(int64(len(msg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seal.Encrypt(key, msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDHTLookup measures one iterative lookup in a 256-node simnet
// cluster, including all message processing.
func BenchmarkDHTLookup(b *testing.B) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Seed: 3})
	rng := stats.NewRNG(4)
	var nodes []*dht.Node
	for i := 0; i < 256; i++ {
		ep := net.Endpoint(transport.Addr(fmt.Sprintf("n%d", i)))
		node, err := dht.NewNode(dht.Config{ID: dht.RandomID(rng), Endpoint: ep, Clock: s})
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	seed := []dht.Contact{nodes[0].Contact()}
	for _, n := range nodes[1:] {
		n.Bootstrap(seed, nil)
	}
	s.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		nodes[i%len(nodes)].Lookup(dht.RandomID(rng), func([]dht.Contact) { done = true })
		s.Run()
		if !done {
			b.Fatal("lookup did not finish")
		}
	}
}

// BenchmarkSimnetThroughput measures the raw simnet fabric hot path —
// send, jitter draw, delivery event, handler dispatch — and
// reports messages per second of wall time.
func BenchmarkSimnetThroughput(b *testing.B) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond, Seed: 5})
	const n = 64
	addrs := make([]transport.Addr, n)
	eps := make([]transport.Endpoint, n)
	delivered := 0
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("n%d", i))
		eps[i] = net.Endpoint(addrs[i])
		eps[i].SetHandler(func(transport.Addr, []byte) { delivered++ })
	}
	payload := make([]byte, 256)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eps[i%n].Send(addrs[(i+1)%n], payload); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			s.Run() // drain in batches, keeping the event heap realistic
		}
	}
	s.Run()
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msgs/sec")
}

// BenchmarkMissionAllocs measures allocations over one complete mission
// cycle — dispatch, hold, release, delivery check — through a pre-booted
// 60-node network with the joint 2x2 plan. This is the allocation gate for
// the zero-allocation crypto & wire path: CI fails if allocs/op regresses
// above the baseline committed in BENCH_scenario.json (an exact allocation
// count, not a timing). Retry is enabled (on a fault-free fabric, so no
// re-send ever fires): the gate covers the hardened steady state — acked
// app delivery, wire retention, receiver dedup — not just the legacy
// single-shot path.
func BenchmarkMissionAllocs(b *testing.B) {
	benchMissionCycle(b, []byte("alloc probe"))
}

// BenchmarkMissionBulk is the BenchmarkMissionAllocs cycle with a 1 MiB
// payload — the one shape where sealing and the cloud are the mission. Its
// B/op is the payload-ownership gate: one cycle owes the ciphertext the
// cloud adopts and the plaintext Emerged returns, ~2 MiB, and each payload
// copy that comes back (a cloning Put, a copying Get, a regrown seal) adds
// another MiB — a count CI reads against bytes_per_op_gate in
// BENCH_scenario.json, not a timing. Its datagrams/op, the fabric's sends
// per cycle and a pure function of the seed, is gated there too: the cycle
// runs the NewNetwork default of two holder replicas and Retry 3, where each
// last-layer holder walks to the receiver's own ID, so a walk that goes back
// to asking its whole window once the receiver has answered fails on it.
func BenchmarkMissionBulk(b *testing.B) {
	payload := make([]byte, 1<<20)
	if _, err := stats.NewByteStream(11).Read(payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	benchMissionCycle(b, payload)
}

// BenchmarkChurnJoin is one churn death and its replacement join on a warmed
// 120-node loop: the dying node closes, a replacement takes over its
// identifier, address and routing table, and its rejoin self-lookup runs
// until alpha replies in a row teach it nothing. Every slot is replaced once
// before the timer starts, so the loop's lists are warm and allocs/op is a
// join's fixed cost: nothing. The join rebuilds in place the host of the
// previous death, which died a second earlier with nothing armed, and binds
// it without closures to the fabric endpoint its predecessor's death left
// closed. datagrams/op is the fabric's send count per join, a pure function
// of the seed. All three are counts, so CI gates them (BENCH_scenario.json):
// a host, table, map, closure or endpoint that a join buys again fails on
// allocs/op and B/op, and a join that walks its whole window again fails on
// datagrams/op.
func BenchmarkChurnJoin(b *testing.B) {
	net, err := NewNetwork(NetworkConfig{Nodes: 120, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	churn := func(i int) {
		idx := 3 + i%(len(net.nodes)-3) // slots 0–2 never churn
		net.die(&net.shards[0], idx)
		net.RunFor(time.Second)
	}
	for i := 0; i < len(net.nodes); i++ {
		churn(i)
	}
	sent0, _, _ := net.FabricStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
	b.StopTimer()
	sent, _, _ := net.FabricStats()
	b.ReportMetric(float64(sent-sent0)/float64(b.N), "datagrams/op")
}

// benchMissionCycle runs b.N sequential missions carrying payload through
// one pre-booted network, and reports the fabric's sends per mission.
func benchMissionCycle(b *testing.B, payload []byte) {
	net, err := NewNetwork(NetworkConfig{Nodes: 60, Seed: 11, Retry: 3})
	if err != nil {
		b.Fatal(err)
	}
	sent0, _, _ := net.FabricStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		missionCycle(b, net, payload)
	}
	b.StopTimer()
	sent, _, _ := net.FabricStats()
	b.ReportMetric(float64(sent-sent0)/float64(b.N), "datagrams/op")
}

// missionCycle is one complete mission under the joint 2x2 plan: send, run
// past release, check the plaintext that emerges byte for byte, delete the
// cloud object.
func missionCycle(tb testing.TB, net *Network, payload []byte) {
	msg, err := net.Send(payload, time.Hour, WithPlan(core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}))
	if err != nil {
		tb.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(time.Minute))
	net.Settle()
	plain, _, ok := net.Emerged(msg)
	if !ok || !bytes.Equal(plain, payload) {
		tb.Fatal("mission did not emerge intact")
	}
	net.Cloud().Delete(msg.CloudObject())
}

// BenchmarkRetainedHeap measures what holders keep of missions that have
// emerged. 120 nodes carry 40 key-share missions of 20 bytes, sent 10 s apart
// with a 1 h emerging period and planned for a 0.1 threat model on 60 nodes;
// the network runs to the last release + 10 min and settles, and every
// mission must emerge. retained_B/mission is the heap in use after two forced
// collections, after the run less before the first send, per mission. A
// record that keeps its key, shares, plaintext or a cipher state past its
// forward adds to it, as does a record that stays in its loop's index past its
// horizon. It is a count — the same on every runner for one toolchain — so CI
// gates it (BENCH_scenario.json). Holders forget every record by the end of
// the run, so what is left of custody is the loop's free records and their
// share buffers; the rest is routing-table entries and the recycled-record
// lists of the DHT, simulator and fabric that the run warmed.
func BenchmarkRetainedHeap(b *testing.B) {
	const missions = 40
	payload := []byte("twenty bytes of data")
	// The key share planner's plan within half the population.
	plan, err := core.PlanSpec{Scheme: SchemeKeyShare, P: 0.1, Alpha: 1, Budget: 60}.Plan()
	if err != nil {
		b.Fatal(err)
	}
	var (
		ms       runtime.MemStats
		retained uint64
	)
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(NetworkConfig{Nodes: 120, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		sent := make([]*Message, 0, missions)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		for range missions {
			msg, err := net.Send(payload, time.Hour, WithPlan(plan))
			if err != nil {
				b.Fatal(err)
			}
			sent = append(sent, msg)
			net.RunFor(10 * time.Second)
		}
		net.RunUntil(sent[len(sent)-1].Release().Add(10 * time.Minute))
		net.Settle()
		for _, msg := range sent {
			if plain, _, ok := net.Emerged(msg); !ok || !bytes.Equal(plain, payload) {
				b.Fatal("a mission did not emerge intact")
			}
		}
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		retained += ms.HeapAlloc - before
		runtime.KeepAlive(net)
	}
	b.ReportMetric(float64(retained)/float64(b.N*missions), "retained_B/mission")
}

// BenchmarkShamirSplitSeeded is BenchmarkShamirSplit on the deterministic
// stream with the batched coefficient draw — the mission dispatch path of
// seeded live runs (one Read per split instead of one per secret byte, no
// syscalls).
func BenchmarkShamirSplitSeeded(b *testing.B) {
	secret := make([]byte, seal.KeySize)
	stream := stats.NewByteStream(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shamir.SplitRand(stream, secret, 10, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnionBuildSealers is BenchmarkOnionBuild through cached Sealer
// handles and a seeded nonce stream: the key schedules are paid once outside
// the loop and the intermediate layers run through pooled scratch, so one
// build allocates only its output.
func BenchmarkOnionBuildSealers(b *testing.B) {
	ls, keys := onionFixture(b)
	stream := stats.NewByteStream(4)
	sealers := make([]*seal.Sealer, len(keys))
	for i, k := range keys {
		s, err := seal.NewSealerRand(k, stream)
		if err != nil {
			b.Fatal(err)
		}
		sealers[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := onion.BuildSealers(ls, sealers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndEmergence measures a full send->emerge cycle (100-node
// network, joint scheme) in simulated time.
func BenchmarkEndToEndEmergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, err := NewNetwork(NetworkConfig{Nodes: 100, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		msg, err := net.Send([]byte("benchmark payload"), time.Hour,
			WithScheme(SchemeJoint), WithThreatModel(0.1))
		if err != nil {
			b.Fatal(err)
		}
		net.RunUntil(msg.Release().Add(time.Minute))
		net.Settle()
		if _, _, ok := net.Emerged(msg); !ok {
			b.Fatal("message did not emerge")
		}
	}
}
