package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"selfemerge/internal/cloud"
	"selfemerge/internal/core"
	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/experiment"
	"selfemerge/internal/fault"
	"selfemerge/internal/mc"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// The rigs time calls into single layers through their exported functions,
// each on inputs generated from the run seed. They are the ladder under the
// workloads: a rig number moves when its layer's code moves and nowhere
// else, which is what lets a change to one layer name the row it expects to
// move before it is measured. Iteration counts are fixed, so both sides of a
// comparison do identical work.

const rigBatches = 3

// bench runs op n times per batch and returns the best batch's host
// nanoseconds and the fewest allocations per op. With a drain, each op is
// timed on its own and drain runs untimed after it (the dispatch rig drains
// the lookups a dispatch kicks off without charging them to it).
func bench(n int, op, drain func()) (ns, allocs float64) {
	var best time.Duration
	var fewest uint64
	for b := 0; b < rigBatches; b++ {
		var took time.Duration
		var mallocs uint64
		var before, after runtime.MemStats
		if drain == nil {
			runtime.ReadMemStats(&before)
			began := time.Now()
			for i := 0; i < n; i++ {
				op()
			}
			took = time.Since(began)
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
		} else {
			for i := 0; i < n; i++ {
				runtime.ReadMemStats(&before)
				began := time.Now()
				op()
				took += time.Since(began)
				runtime.ReadMemStats(&after)
				mallocs += after.Mallocs - before.Mallocs
				drain()
			}
		}
		if b == 0 || took < best {
			best = took
		}
		if b == 0 || mallocs < fewest {
			fewest = mallocs
		}
	}
	return float64(best) / float64(n), float64(fewest) / float64(n)
}

// rigResults collects rig metrics by name. The first failed output check
// aborts the traced run: a rig that computes the wrong thing measures
// nothing.
type rigResults struct {
	m   map[string]float64
	err error
}

func (r *rigResults) set(name string, v float64) { r.m[name] = v }

func (r *rigResults) check(ok bool, what string) {
	if !ok && r.err == nil {
		r.err = errors.New("rig output check failed: " + what)
	}
}

func (r *rigResults) must(err error) {
	if err != nil && r.err == nil {
		r.err = fmt.Errorf("rig: %w", err)
	}
}

// runRigs measures every layer rig, then runs the lookup rig once more
// through traced endpoints to split a lookup's time between the dht
// handlers, the simnet sends and the event loop. It returns that run's spans.
func runRigs(seed uint64) (map[string]float64, []span, error) {
	r := &rigResults{m: make(map[string]float64)}
	stream := stats.NewByteStream(stats.Mix64(seed, 0x7169))
	rng := stats.NewRNG(stats.Mix64(seed, 0x7170))
	for _, rig := range []func(*rigResults, *stats.ByteStream, *stats.RNG){
		rigSealCloud, rigOnion, rigShamir, rigPacket, rigDispatch, rigMessage, rigTable,
		rigSimnet, rigHandoff, rigSim, rigEpoch, rigFault, rigModels,
	} {
		rig(r, stream, rng)
		if r.err != nil {
			return nil, nil, r.err
		}
	}
	rigLookup(r, rng, nil)
	tr := newTracer()
	rigLookup(r, rng, tr)
	return r.m, tr.spans, r.err
}

func randomBytes(stream *stats.ByteStream, n int) []byte {
	b := make([]byte, n)
	_, _ = stream.Read(b) // a ByteStream never fails
	return b
}

func newSealer(r *rigResults, stream *stats.ByteStream) *seal.Sealer {
	key, err := seal.NewKeyFrom(stream)
	r.must(err)
	s, err := seal.NewSealerRand(key, stream)
	r.must(err)
	return s
}

func rigSealCloud(r *rigResults, stream *stats.ByteStream, _ *stats.RNG) {
	s := newSealer(r, stream)
	if r.err != nil {
		return
	}
	big, small := randomBytes(stream, 1<<20), randomBytes(stream, 1<<10)
	var ct []byte
	ns, _ := bench(20, func() { ct, _ = s.Encrypt(big, nil) }, nil)
	r.set("seal.encrypt_1m_us", ns/1e3)
	var pt []byte
	ns, _ = bench(20, func() { pt, _ = s.Decrypt(ct, nil) }, nil)
	r.set("seal.decrypt_1m_us", ns/1e3)
	r.check(bytes.Equal(pt, big), "seal round trip")
	ns, allocs := bench(20000, func() { ct, _ = s.Encrypt(small, nil) }, nil)
	r.set("seal.encrypt_1k_ns", ns)
	r.set("seal.encrypt_allocs", allocs)

	store := cloud.NewStore()
	var got []byte
	ns, _ = bench(20, func() {
		store.Put("object", big)
		got, _ = store.Get("object", "receiver")
		store.Delete("object")
	}, nil)
	r.set("cloud.put_get_1m_us", ns/1e3)
	r.check(bytes.Equal(got, big), "cloud round trip")
}

// rigOnion wraps and peels the mission shape of the joint 2x2 plan: two
// layers, two next hops each, a 32-byte key innermost.
func rigOnion(r *rigResults, stream *stats.ByteStream, rng *stats.RNG) {
	hopA, hopB := dht.RandomID(rng), dht.RandomID(rng)
	layers := []onion.Layer{
		{NextHops: [][]byte{hopA[:], hopB[:]}},
		{NextHops: [][]byte{hopA[:], hopB[:]}, Payload: randomBytes(stream, seal.KeySize)},
	}
	sealers := []*seal.Sealer{newSealer(r, stream), newSealer(r, stream)}
	if r.err != nil {
		return
	}
	var wrapped []byte
	var err error
	ns, allocs := bench(5000, func() { wrapped, err = onion.BuildSealers(layers, sealers) }, nil)
	r.must(err)
	r.set("onion.build_ns", ns)
	r.set("onion.build_allocs", allocs)
	var outer onion.Layer
	ns, allocs = bench(5000, func() { outer, err = onion.PeelSealer(sealers[0], wrapped) }, nil)
	r.must(err)
	r.set("onion.peel_ns", ns)
	r.set("onion.peel_allocs", allocs)
	r.check(len(outer.NextHops) == 2 && len(outer.Rest) > 0, "onion peel")
}

func rigShamir(r *rigResults, stream *stats.ByteStream, _ *stats.RNG) {
	secret := randomBytes(stream, seal.KeySize)
	var shares []shamir.Share
	var err error
	ns, allocs := bench(5000, func() { shares, err = shamir.SplitRand(stream, secret, 2, 4) }, nil)
	r.must(err)
	r.set("shamir.split_ns", ns)
	r.set("shamir.split_allocs", allocs)
	if r.err != nil {
		return
	}
	var back []byte
	ns, _ = bench(5000, func() { back, err = shamir.Combine(shares[1:3], 2) }, nil)
	r.must(err)
	r.set("shamir.combine_ns", ns)
	r.check(bytes.Equal(back, secret), "shamir round trip")
}

func rigPacket(r *rigResults, stream *stats.ByteStream, rng *stats.RNG) {
	pkt := protocol.Packet{
		Kind: protocol.PkMainOnion, Column: 1, Slot: 1, HoldUntil: 1 << 40, Step: 1 << 30,
		Target: dht.RandomID(rng), Data: randomBytes(stream, 200),
	}
	copy(pkt.Mission[:], randomBytes(stream, len(pkt.Mission)))
	var wire []byte
	encNs, encAllocs := bench(50000, func() { wire = pkt.AppendEncode(wire[:0]) }, nil)
	var back protocol.Packet
	var err error
	decNs, decAllocs := bench(50000, func() { back, err = protocol.DecodePacket(wire) }, nil)
	r.must(err)
	r.set("protocol.packet_encode_ns", encNs)
	r.set("protocol.packet_decode_ns", decNs)
	r.set("protocol.packet_allocs", encAllocs+decAllocs)
	r.check(back.Mission == pkt.Mission && bytes.Equal(back.Data, pkt.Data), "packet round trip")
}

// cluster is a bootstrapped DHT on a private simnet: the substrate of the
// dispatch and lookup rigs.
type cluster struct {
	sim    *sim.Simulator
	fabric *simnet.Network
	nodes  []*dht.Node
}

func newCluster(r *rigResults, size int, rng *stats.RNG, tr *tracer) *cluster {
	c := &cluster{sim: sim.NewSimulator()}
	c.fabric = simnet.New(c.sim, simnet.Config{BaseLatency: time.Millisecond, Seed: rng.Uint64()})
	for i := 0; i < size; i++ {
		ep := c.fabric.Endpoint(transport.Addr(fmt.Sprintf("n%d", i)))
		if tr != nil {
			ep = tracedEndpoint{Endpoint: ep, t: tr}
		}
		node, err := dht.NewNode(dht.Config{ID: dht.RandomID(rng), Endpoint: ep, Clock: c.sim})
		r.must(err)
		if err != nil {
			return nil
		}
		c.nodes = append(c.nodes, node)
	}
	seed := []dht.Contact{c.nodes[0].Contact()}
	for _, n := range c.nodes[1:] {
		n.Bootstrap(seed, nil)
	}
	c.sim.Run()
	return c
}

// rigDispatch times Sender.Dispatch alone — plan expansion, onion and share
// construction, lookup kick-off — on a 60-node cluster, for the joint 2x2
// and key-share (2,4) plans. The lookups it starts drain untimed.
func rigDispatch(r *rigResults, stream *stats.ByteStream, rng *stats.RNG) {
	c := newCluster(r, bulkNodes, rng, nil)
	if c == nil {
		return
	}
	sender := protocol.NewSender(stream)
	secret := randomBytes(stream, seal.KeySize)
	for _, shape := range []struct {
		suffix string
		plan   core.Plan
	}{{"", joint2x2}, {"_share", share2x2}} {
		packets := 0
		ns, allocs := bench(100, func() {
			id, err := sender.NewMissionID()
			r.must(err)
			packets, err = sender.Dispatch(c.nodes[2], protocol.Mission{
				ID: id, Plan: shape.plan, Secret: secret, Receiver: c.nodes[1].ID(),
				Start: c.sim.Now(), Release: c.sim.Now().Add(time.Hour), Replicas: 1,
			})
			r.must(err)
		}, c.sim.Run)
		r.set("protocol.dispatch"+shape.suffix+"_us", ns/1e3)
		r.set("protocol.dispatch"+shape.suffix+"_allocs", allocs)
		r.check(packets > 0, "dispatch sent no packets")
	}
}

func rigMessage(r *rigResults, _ *stats.ByteStream, rng *stats.RNG) {
	msg := dht.Message{Kind: dht.KindFindNodeResp, RPCID: rng.Uint64(),
		From: dht.Contact{ID: dht.RandomID(rng), Addr: "node-1"}}
	for i := 0; i < 20; i++ {
		msg.Contacts = append(msg.Contacts, dht.Contact{ID: dht.RandomID(rng), Addr: transport.Addr(fmt.Sprintf("node-%d", i))})
	}
	var wire []byte
	var err error
	encNs, encAllocs := bench(50000, func() { wire, err = msg.AppendEncode(wire[:0]) }, nil)
	r.must(err)
	var back dht.Message
	decNs, decAllocs := bench(50000, func() { err = dht.DecodeMessageInto(&back, wire) }, nil)
	r.must(err)
	r.set("dht.msg_encode_ns", encNs)
	r.set("dht.msg_decode_ns", decNs)
	r.set("dht.msg_allocs", encAllocs+decAllocs)
	r.check(back.RPCID == msg.RPCID && len(back.Contacts) == 20 && back.Contacts[19] == msg.Contacts[19], "message round trip")
}

func rigTable(r *rigResults, _ *stats.ByteStream, rng *stats.RNG) {
	now := time.Unix(0, 0)
	table := dht.NewTable(dht.RandomID(rng), 20, 10*time.Minute, func() time.Time { return now })
	contacts := make([]dht.Contact, 2000)
	for i := range contacts {
		contacts[i] = dht.Contact{ID: dht.RandomID(rng), Addr: transport.Addr(fmt.Sprintf("node-%d", i))}
		table.Observe(contacts[i])
	}
	i := 0
	ns, _ := bench(50000, func() { table.Observe(contacts[i%len(contacts)]); i++ }, nil)
	r.set("dht.table_observe_ns", ns)
	var closest []dht.Contact
	ns, _ = bench(20000, func() { closest = table.AppendClosest(closest[:0], contacts[i%len(contacts)].ID, 20); i++ }, nil)
	r.set("dht.table_closest_ns", ns)
	r.check(len(closest) == 20, "table closest")
}

// rigLookup runs iterative lookups for random targets on a 256-node cluster
// and scores each against the true XOR-closest node. With a tracer, the
// cluster's endpoints are wrapped and the lookup's span tree yields the
// handler / send / event-loop split instead of the timing rows.
func rigLookup(r *rigResults, rng *stats.RNG, tr *tracer) {
	const size, lookups = 256, 300
	began := time.Now()
	c := newCluster(r, size, rng, tr)
	if c == nil {
		return
	}
	boot := time.Since(began)
	exact, done, i := 0, 0, 0
	op := func() {
		target := dht.RandomID(rng)
		sp := tr.begin("rig.lookup", -1)
		c.nodes[i%size].Lookup(target, func(found []dht.Contact) {
			done++
			best := c.nodes[0].ID()
			for _, n := range c.nodes[1:] {
				if target.CloserTo(n.ID(), best) {
					best = n.ID()
				}
			}
			if len(found) > 0 && found[0].ID == best {
				exact++
			}
		})
		c.sim.Run()
		tr.end(sp)
		i++
	}
	if tr != nil {
		tr.spans = tr.spans[:0] // the cluster's bootstrap traffic is not a lookup
		for k := 0; k < lookups; k++ {
			op()
		}
		self := selfTimes(tr.spans)
		total := float64(self["rig.lookup"] + self["dht.handle"] + self["simnet.send"])
		r.set("dht.lookup_handler_share", float64(self["dht.handle"])/total)
		r.set("simnet.lookup_send_share", float64(self["simnet.send"])/total)
		r.set("sim.lookup_loop_share", float64(self["rig.lookup"])/total)
		r.check(done == lookups, "traced lookups did not finish")
		return
	}
	sent0, _, _ := c.fabric.Stats()
	ns, allocs := bench(lookups, op, nil)
	sent1, _, _ := c.fabric.Stats()
	r.set("dht.bootstrap_us_per_node", float64(boot.Microseconds())/size)
	r.set("dht.lookup_us", ns/1e3)
	r.set("dht.lookup_allocs", allocs)
	r.set("dht.lookup_datagrams", float64(sent1-sent0)/float64(done))
	r.set("dht.lookup_exact_ratio", float64(exact)/float64(done))
	r.check(done == lookups*rigBatches, "lookups did not finish")
}

func rigSimnet(r *rigResults, stream *stats.ByteStream, rng *stats.RNG) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Jitter: time.Millisecond, Seed: rng.Uint64()})
	const n = 64
	addrs := make([]transport.Addr, n)
	eps := make([]transport.Endpoint, n)
	delivered := 0
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("n%d", i))
		eps[i] = net.Endpoint(addrs[i])
		eps[i].SetHandler(func(transport.Addr, []byte) { delivered++ })
	}
	payload := randomBytes(stream, 256)
	i := 0
	ns, allocs := bench(100000, func() {
		r.must(eps[i%n].Send(addrs[(i+1)%n], payload))
		if i++; i%1024 == 0 {
			s.Run() // drain in batches, keeping the event queue realistic
		}
	}, nil)
	s.Run()
	r.set("simnet.msg_ns", ns)
	r.set("simnet.msg_allocs", allocs)
	r.check(delivered == i, "simnet delivery count")
}

// rigHandoff times the partition fabric's cross-shard path: a send into the
// source shard's outbox, the barrier's Flush into the destination loop, and
// the delivery there.
func rigHandoff(r *rigResults, stream *stats.ByteStream, rng *stats.RNG) {
	sims := []*sim.Simulator{sim.NewSimulator(), sim.NewSimulator()}
	part, err := simnet.NewPartition([]sim.Clock{sims[0], sims[1]}, simnet.Config{BaseLatency: time.Millisecond, Seed: rng.Uint64()})
	r.must(err)
	if err != nil {
		return
	}
	lock := &sim.Lockstep{Sims: sims, Lookahead: part.Lookahead(), Exchange: part.Flush, Workers: 1}
	a, b := part.Endpoint(0, "a"), part.Endpoint(1, "b")
	delivered := 0
	b.SetHandler(func(transport.Addr, []byte) { delivered++ })
	payload := randomBytes(stream, 256)
	i := 0
	ns, _ := bench(100000, func() {
		r.must(a.Send("b", payload))
		if i++; i%1024 == 0 {
			lock.RunFor(2 * time.Millisecond)
		}
	}, nil)
	lock.RunFor(2 * time.Millisecond)
	r.set("simnet.handoff_msg_ns", ns)
	r.check(delivered == i, "hand-off delivery count")
}

func rigSim(r *rigResults, _ *stats.ByteStream, _ *stats.RNG) {
	s := sim.NewSimulator()
	fired := 0
	count := func(any) { fired++ }
	for i := 0; i < 10000; i++ { // the standing queue every event is scheduled into
		s.ScheduleArg(24*time.Hour+time.Duration(i)*time.Second, count, nil)
	}
	i := 0
	ns, _ := bench(100000, func() {
		s.ScheduleArg(time.Duration(i%1000)*time.Microsecond, count, nil)
		if i++; i%1000 == 0 {
			s.RunFor(time.Millisecond)
		}
	}, nil)
	s.RunFor(time.Millisecond)
	r.set("sim.schedule_run_ns", ns)
	r.check(fired == i, "sim fired every event")

	stopped := 0
	ns, _ = bench(100000, func() {
		if s.AfterFuncArg(time.Second, count, nil).Stop() {
			stopped++
		}
	}, nil)
	r.set("sim.timer_stop_ns", ns)
	r.check(stopped == 100000*rigBatches && fired == i, "sim stopped every timer")
}

// rigEpoch drives a Lockstep over two nearly idle simulators — one local
// tick each per 10 simulated ms, no cross traffic — so the time per epoch is
// the barrier's own cost.
func rigEpoch(r *rigResults, _ *stats.ByteStream, _ *stats.RNG) {
	sims := []*sim.Simulator{sim.NewSimulator(), sim.NewSimulator()}
	for k, s := range sims {
		s := s
		var tick func()
		tick = func() { s.Schedule(10*time.Millisecond, tick) }
		s.Schedule(time.Duration(k+1)*3*time.Millisecond, tick)
	}
	exchanges := 0
	lock := &sim.Lockstep{Sims: sims, Lookahead: time.Millisecond, Exchange: func() { exchanges++ }, Workers: 1}
	var best float64
	for b := 0; b < rigBatches; b++ {
		before := lock.Epochs()
		began := time.Now()
		lock.RunFor(100 * time.Second)
		took := time.Since(began)
		epochs := lock.Epochs() - before
		r.check(epochs > 0 && exchanges > 0, "lockstep ran no epochs")
		if epochs == 0 {
			return
		}
		if per := float64(took) / float64(epochs); b == 0 || per < best {
			best = per
		}
	}
	r.set("sim.epoch_ns", best)
}

func rigFault(r *rigResults, _ *stats.ByteStream, rng *stats.RNG) {
	eng, err := fault.New(fault.Config{Profile: fault.ProfileBurst, Severity: 0.5, Seed: rng.Uint64()})
	r.must(err)
	if err != nil {
		return
	}
	addrs := make([]transport.Addr, 64)
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("n%d", i))
	}
	now := time.Unix(0, 0)
	drops, i := 0, 0
	ns, _ := bench(100000, func() {
		now = now.Add(time.Millisecond)
		if eng.Judge(now, addrs[i%64], addrs[(i*7+1)%64]).Drop {
			drops++
		}
		i++
	}, nil)
	r.set("fault.judge_ns", ns)
	r.check(drops > 0 && drops < i, "burst profile drops some datagrams, not all")
}

// rigModels times the abstract side: Monte Carlo trial throughput at the
// steady-120 environment, and the sweep runner's per-point overhead over a
// 12-point closed-form sweep (4 malicious rates x 3 schemes).
func rigModels(r *rigResults, _ *stats.ByteStream, rng *stats.RNG) {
	env := mc.Env{Population: 120, Malicious: 12, Alpha: 1}
	const trials = 5000
	var res mc.Result
	var err error
	ns, _ := bench(1, func() {
		res, err = mc.Estimate(joint2x2, env, mc.Options{Trials: trials, Seed: rng.Uint64(), Workers: 1})
	}, nil)
	r.must(err)
	r.set("mc.trials_per_s", trials/(ns/1e9))
	r.check(res.Trials == trials, "mc ran every trial")

	sweep := experiment.Sweep{
		Seed: rng.Uint64(),
		Base: experiment.Point{Network: 100, K: 2, L: 2},
		Axes: []experiment.Axis{
			experiment.RangeAxis("p", 0, 0.3, 0.1),
			experiment.SchemeAxis(core.SchemeCentral, core.SchemeDisjoint, core.SchemeJoint),
		},
	}
	var rs *experiment.ResultSet
	ns, _ = bench(20, func() { rs, err = experiment.Runner{Estimator: experiment.Analytic{}, Parallel: 1}.Run(sweep) }, nil)
	r.must(err)
	if err == nil {
		r.set("experiment.points_per_s", float64(len(rs.Results))/(ns/1e9))
		r.check(len(rs.Results) == 12, "sweep produced 12 points")
	}
}
