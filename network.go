package selfemerge

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/cloud"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// Scheme selects a self-emerging key routing scheme.
type Scheme = core.Scheme

// The four schemes of the paper, in increasing sophistication.
const (
	SchemeCentral  = core.SchemeCentral
	SchemeDisjoint = core.SchemeDisjoint
	SchemeJoint    = core.SchemeJoint
	SchemeKeyShare = core.SchemeKeyShare
)

// AttackStrategy selects what Sybil-controlled holders do with their
// position.
type AttackStrategy = adversary.Strategy

// The adversary strategies: passive release-ahead collection, package
// dropping, and bucket-poisoning eclipse (which also drops).
const (
	AttackSpy     = adversary.StrategySpy
	AttackDrop    = adversary.StrategyDrop
	AttackEclipse = adversary.StrategyEclipse
)

// FaultProfile selects a correlated-fault regime for the simulated fabric
// (see internal/fault).
type FaultProfile = fault.Profile

// The fault regimes: none, Gilbert–Elliott burst loss, timed bisection
// partitions, and crash-restart flapping.
const (
	FaultNone      = fault.ProfileNone
	FaultBurst     = fault.ProfileBurst
	FaultPartition = fault.ProfilePartition
	FaultFlap      = fault.ProfileFlap
)

// Resilience is the retry-hardening counter set ResilienceStats reports
// (see dht.Resilience).
type Resilience = dht.Resilience

// TablePolicy selects the DHT routing-table bucket admission policy.
type TablePolicy = dht.TablePolicy

// The admission policies: ping-before-evict (eclipse-resistant) and the
// historical naive stale-eviction.
const (
	TablePingEvict = dht.TablePingEvict
	TableNaive     = dht.TableNaive
)

// NetworkConfig sizes an in-process self-emerging data network.
type NetworkConfig struct {
	// Nodes is the DHT population (default 100).
	Nodes int
	// MaliciousRate is the fraction p of Sybil-controlled nodes (default 0).
	MaliciousRate float64
	// Attack selects the malicious-holder strategy: spy (release-ahead
	// collection, the default), drop (discard every package held), or eclipse
	// (bucket poisoning plus drop; see adversary.Strategy).
	Attack adversary.Strategy
	// ForgeRate is the eclipse flood intensity: forged contacts emitted per
	// attacker per minute. Only meaningful with StrategyEclipse; zero means
	// the eclipse adversary degenerates to drop. The forger is one actor for
	// the whole population: it acts once per simulated second with every
	// event loop paused at that instant, so it composes with any Partition.
	ForgeRate float64
	// Table selects the DHT bucket admission policy. The default resolves
	// to dht.TableNaive — the historical behavior every recorded
	// deterministic run was captured under — NOT the dht package's own
	// secure default; attack experiments flip it to dht.TablePingEvict to
	// measure the defense.
	Table dht.TablePolicy
	// MeanLifetime enables churn: nodes die with exponentially distributed
	// lifetimes of this mean, and every death is followed by a fresh node
	// joining the DHT, malicious with probability MaliciousRate — the
	// stationary network of Section II-C. The replacement adopts the dead
	// node's identifier and address with wiped state, taking over the vacated
	// DHT zone, which is exactly the slot-refill semantics the paper's repair
	// model (and the Monte Carlo engine) assumes. Zero disables churn.
	MeanLifetime time.Duration
	// HonestEndpoints exempts the three infrastructure nodes (bootstrap,
	// receiver, dispatcher) from the malicious marking, matching the
	// honest-endpoint assumption of the paper's model. The marked count
	// stays floor(MaliciousRate * Nodes), drawn from the remaining nodes.
	HonestEndpoints bool
	// Replicas is how many closest nodes receive each protocol packet
	// (default 2). Model-faithful scenario runs use 1.
	Replicas int
	// Repair enables protocol-level churn repair: surviving key custodians
	// re-grant layer keys to churn replacements once per holding period.
	Repair bool
	// Fault selects a correlated-fault regime for the fabric: Gilbert–
	// Elliott burst loss, timed bisection partitions, or crash-restart
	// flapping (see internal/fault). FaultNone (the default) constructs no
	// engine at all, so default runs keep their historical byte-exact event
	// sequences. Each event loop carries its own engine on its own substream
	// of the seed and judges what its nodes send, at send time, so faults
	// compose with any Partition and stay byte-deterministic at any worker
	// count; the burst chain is therefore per loop, not network-wide.
	Fault fault.Profile
	// FaultSeverity in [0,1] scales the fault regime's intensity; zero
	// makes any profile a no-op (and constructs no engine).
	FaultSeverity float64
	// Retry is the total number of send attempts per DHT RPC (0 or 1:
	// single-shot, the historical behavior). Values above 1 enable the
	// full retry-hardened arm: dht.Config.Retry exponential backoff on every
	// RPC, acknowledged app sends with receiver dedup, lookup re-query of
	// timed-out contacts, and doubled repair pushes at the protocol layer.
	Retry int
	// Partition splits the one population across this many parallel event
	// loops (shards), each with its own simulator and simnet fabric slice,
	// advancing in conservative lockstep epochs with cross-shard sends
	// merged at epoch barriers in a fixed order — the scaling mode for
	// populations one core's event loop cannot hold. A node's shard is a
	// pure function of its DHT identifier (dht.ID.Shard), so churn
	// replacements stay on their predecessor's shard. Zero means one: a
	// single shard under the same engine, which replays every run recorded
	// before the engine existed byte for byte. Results are byte-deterministic
	// at any worker count or GOMAXPROCS, and every other knob composes with
	// any shard count.
	Partition int
	// Seed makes the network fully reproducible, down to every byte of
	// sender-side cryptographic randomness: mission identifiers, layer keys,
	// GCM nonces and Shamir coefficients are a seed-derived ChaCha8 stream.
	Seed uint64
}

// latency is the fabric's one-way delivery delay, and so the lockstep
// lookahead.
const latency = 5 * time.Millisecond

// Validate reports the first setting NewNetwork would refuse; zero values
// stand for their defaults. It is the one check of a network's settings: the
// scenario engine validates a live point's network half through it.
func (c NetworkConfig) Validate() error {
	if c.Nodes != 0 && c.Nodes < 3 {
		return errors.New("selfemerge: need at least 3 nodes")
	}
	if !(c.MaliciousRate >= 0 && c.MaliciousRate <= 1) {
		return fmt.Errorf("selfemerge: malicious rate %v outside [0,1]", c.MaliciousRate)
	}
	if c.ForgeRate < 0 {
		return fmt.Errorf("selfemerge: negative forge rate %v", c.ForgeRate)
	}
	if c.ForgeRate > 0 && c.Attack != adversary.StrategyEclipse {
		return errors.New("selfemerge: a forge rate requires the eclipse attack")
	}
	if c.Replicas < 0 {
		return fmt.Errorf("selfemerge: negative replica count %d", c.Replicas)
	}
	if c.Partition < 0 {
		return fmt.Errorf("selfemerge: negative partition count %d", c.Partition)
	}
	if err := (fault.Config{Profile: c.Fault, Severity: c.FaultSeverity}).Validate(); err != nil {
		return err
	}
	if c.Retry < 0 {
		return fmt.Errorf("selfemerge: negative retry attempts %d", c.Retry)
	}
	if c.MeanLifetime < 0 {
		return fmt.Errorf("selfemerge: negative mean lifetime %v", c.MeanLifetime)
	}
	return nil
}

func (c NetworkConfig) withDefaults() (NetworkConfig, error) {
	if err := c.Validate(); err != nil {
		return c, err
	}
	c.Nodes = cmp.Or(c.Nodes, 100)
	c.Table = cmp.Or(c.Table, dht.TableNaive)
	c.Partition = cmp.Or(c.Partition, 1)
	return c, nil
}

// Network is an in-process deployment: a simulated-time Kademlia DHT with
// protocol hosts on every node, a cloud store, an adversary collector, and
// an optional churn process. It is the environment the examples and tests
// drive; create one per experiment.
type Network struct {
	cfg       NetworkConfig
	cloudSt   *cloud.Store
	collector *adversary.Collector
	rng       *stats.RNG // boot-time structural draws: identifiers, marking

	// The one population runs on cfg.Partition event loops advancing in
	// lockstep over one partitioned fabric; shards holds what each loop owns.
	// Between Run calls every shard clock agrees on the barrier time.
	shards   []shard
	lockstep *sim.Lockstep
	fabric   *simnet.Partition
	// cryptoSrc feeds every sender-side cryptographic draw; sender wraps it
	// for mission construction. It is seed-derived ChaCha8.
	cryptoSrc io.Reader
	sender    *protocol.Sender
	// forger is the eclipse flood; nil unless configured, so other runs add
	// no RNG draws and no datagrams. RunUntil drives its ticks at barriers.
	forger *adversary.Forger

	// nodes is the population by slot, each a host with its node inside.
	// After boot a slot is rewritten only by its owner shard's loop (a churn
	// replacement), and read across slots only between runs.
	nodes    []*protocol.Host
	receiver *dht.Node
	slots    []slot // death records by population slot, made at boot under churn
	// seeds is every join's bootstrap list: node 0, which churn never
	// replaces. Made once at boot and only read after it, from any loop.
	seeds []dht.Contact

	// deliveries is written from the receiver's loop and read between runs.
	deliveries map[protocol.MissionID]delivery
}

// shard is what one event loop owns. Everything here is touched only from
// that loop (or from the driving goroutine while every loop is paused at a
// barrier), which is what keeps concurrently running shards deterministic
// without locks.
type shard struct {
	sim *sim.Simulator
	// rng makes the shard's post-boot structural draws (replacement
	// maliciousness): a stream shared across concurrent loops would make the
	// marking sequence depend on scheduling.
	rng *stats.RNG
	// lifetimes draws each node's exponential lifetime (Section II-C); nil
	// when churn is disabled.
	lifetimes *stats.RNG
	// fault judges what this shard's nodes send and schedules their
	// crash-restart windows; nil unless an active fault profile is configured
	// (a constructed-but-idle engine would still be consulted per datagram).
	fault *fault.Engine
	// scratch is the DHT working memory every node on this loop shares, so it
	// outlives churn replacements instead of being re-bought at each join.
	scratch *dht.Scratch
	// reports defers this shard's malicious-holder observations to the
	// barrier (see releaseReports), in the order they were made; the first
	// reportHead of them were released by the merge under way. Their
	// payloads are copies in reportBytes, which is emptied once every
	// report is released (at the latest when a RunUntil ends).
	reports     []reportRec
	reportHead  int
	reportBytes []byte

	// spare is the host of this shard's latest churn death and spareAt the
	// instant it died: a join at a later instant rebuilds it in place
	// (spawn).
	spare   *protocol.Host
	spareAt int64

	// Churn counters of this shard's nodes; the death event runs on this loop.
	deaths, joins int
	// retired accumulates the resilience counters of churn-replaced nodes
	// at death, so ResilienceStats never loses a dead node's activity.
	retired dht.Resilience
}

type delivery struct {
	at     time.Time
	secret []byte
}

// slot is the argument of a churn death event (slotDies), written by the
// owner shard's loop when a node spawns at the slot.
type slot struct {
	net       *Network
	sh        *shard
	idx       int
	stopCrash func() // ends the node's crash-restart schedule
}

// slotDies is the death event of the node at a slot.
func slotDies(arg any) {
	sl := arg.(*slot)
	sl.stopCrash()
	sl.net.die(sl.sh, sl.idx)
}

// NewNetwork boots and bootstraps the network; it returns with the DHT
// converged (simulated time has advanced past the join traffic).
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Network{
		cfg:        cfg,
		cloudSt:    cloud.NewStore(),
		collector:  adversary.NewCollector(),
		rng:        stats.NewRNG(cfg.Seed),
		deliveries: make(map[protocol.MissionID]delivery),
		// A decorrelated substream of the network seed, so the crypto stream
		// never re-samples the bytes the structural RNG consumes.
		cryptoSrc: stats.NewByteStream(stats.Mix64(cfg.Seed, 0xc0de)),
	}
	n.sender = protocol.NewSender(n.cryptoSrc)

	sims := make([]*sim.Simulator, cfg.Partition)
	for i := range sims {
		sims[i] = sim.NewSimulator()
	}
	n.fabric, err = simnet.NewPartition(sims, simnet.Config{BaseLatency: latency, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	n.lockstep = &sim.Lockstep{
		Sims:      sims,
		Lookahead: n.fabric.Lookahead(),
		Exchange:  n.fabric.Flush,
		Release:   n.releaseReports,
	}
	faultEnabled := cfg.Fault != fault.ProfileNone && cfg.FaultSeverity > 0
	n.shards = make([]shard, cfg.Partition)
	for i := range n.shards {
		// Shard 0 keeps every seed derivation the recorded single-loop runs
		// were captured under (fabric Seed+1, churn Seed+2, the boot RNG for
		// replacement marking, the fault stream), so a one-shard network
		// replays them byte for byte; higher shards draw decorrelated
		// substreams, none of which re-samples fabric or churn draws.
		sh := &n.shards[i]
		sh.sim, sh.rng = sims[i], n.rng
		churnSeed, faultSeed := cfg.Seed+2, stats.Mix64(cfg.Seed, 0xfa177)
		if i > 0 {
			sh.rng = stats.NewRNG(stats.Mix64(cfg.Seed+3, uint64(i)))
			churnSeed = stats.Mix64(churnSeed, uint64(i))
			faultSeed = stats.Mix64(faultSeed, uint64(i))
		}
		if cfg.MeanLifetime > 0 {
			sh.lifetimes = stats.NewRNG(churnSeed)
		}
		if faultEnabled {
			sh.fault, err = fault.New(fault.Config{Profile: cfg.Fault, Severity: cfg.FaultSeverity, Seed: faultSeed})
			if err != nil {
				return nil, err
			}
			n.fabric.SetInjector(i, sh.fault)
		}
		// Every loop sees every address: contacts travel across shards.
		sh.scratch = dht.NewScratch(cfg.Nodes)
	}

	if cfg.Attack == adversary.StrategyEclipse && cfg.ForgeRate > 0 {
		n.forger = adversary.NewForger(n.Now(), cfg.ForgeRate, stats.Mix64(cfg.Seed, 0xf049e))
		n.collector.SetZoneSink(n.forger.ObserveZone)
	}

	if cfg.MeanLifetime > 0 {
		n.slots = make([]slot, cfg.Nodes)
	}
	malicious := n.markMalicious()
	ids := make([]dht.ID, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		if err := n.addNode(i, malicious[i]); err != nil {
			return nil, err
		}
		ids[i] = n.nodes[i].Node().ID()
	}
	// Churn replacements keep their predecessors' IDs, so the boot population
	// is every node the network will ever have.
	pop := dht.NewPopulation(ids)
	for i := range n.shards {
		n.shards[i].scratch.SetPopulation(pop)
	}
	n.receiver = n.nodes[1].Node()
	n.seeds = []dht.Contact{n.nodes[0].Node().Contact()}
	for _, host := range n.nodes[1:] {
		host.Node().Bootstrap(n.seeds, nil)
	}
	// Settle the join traffic within a bounded window. Draining the whole
	// event queue would fast-forward through every scheduled churn death.
	n.RunFor(time.Minute)
	return n, nil
}

// reportRec is one deferred adversary observation. Its merge coordinates
// are (at, shard, seq); the queue it sits in and its position there supply
// the last two.
type reportRec struct {
	at   int64
	from dht.ID
	pkt  protocol.Packet // Data views the shard's reportBytes
}

// Report implements protocol.Reporter for the hosts on this shard: defer the
// observation into the shard's queue. Concurrent shard loops reporting
// straight into the collector would interleave nondeterministically; the
// barrier merges the queues in (time, shard, seq) order instead. The packet's
// payload is copied at enqueue: the transport reclaims the handler's buffer
// when the event returns, long before the barrier drain. A copy is never
// written again, so an append that moves reportBytes leaves earlier copies
// where they are.
func (sh *shard) Report(now time.Time, from dht.ID, pkt protocol.Packet) {
	start := len(sh.reportBytes)
	sh.reportBytes = append(sh.reportBytes, pkt.Data...)
	pkt.Data = sh.reportBytes[start:len(sh.reportBytes):len(sh.reportBytes)]
	sh.reports = append(sh.reports, reportRec{at: now.UnixNano(), from: from, pkt: pkt})
}

// releaseReports is the lockstep Release hook: feed the deferred adversary
// reports timestamped strictly before the horizon to the collector,
// single-threaded, in (time, shard, seq) order. The lockstep calls it with
// the global next-event time after each barrier probe — every report any
// shard can still produce is at or after that — so the collector ingests a
// prefix of the global timestamp order at every call, and its first-wins
// state stays a pure function of the run (what the adversary is judged to
// have known never depends on epoch shapes or worker counts). Draining at
// the exchange instead would not do: shard clocks diverge inside an epoch,
// so a wide-bound shard can queue a report before an earlier-timestamped one
// from a narrow-bound shard exists. Reports timestamped exactly at the
// horizon wait for the next barrier; the final call at deadline+1ns flushes
// them. The collector's zone sink — the eclipse forger's intelligence —
// fires from here too, so the forger learns zones in the same global order.
//
// Each queue is filled in nondecreasing timestamp order (a shard's clock
// only advances), so the drain is a k-way merge over queue prefixes, like
// the fabric's Flush: take the earliest (at, shard) head, per-queue seq
// monotonicity supplies the rest of the order.
func (n *Network) releaseReports(before time.Time) {
	horizon := before.UnixNano()
	for {
		var best *shard
		var bestAt int64
		for i := range n.shards {
			sh := &n.shards[i]
			if sh.reportHead == len(sh.reports) {
				continue
			}
			// Queues are at-sorted: a head at or past the horizon parks the
			// whole queue until a later release.
			if at := sh.reports[sh.reportHead].at; at < horizon && (best == nil || at < bestAt) {
				best, bestAt = sh, at
			}
		}
		if best == nil {
			break
		}
		r := &best.reports[best.reportHead]
		// The collector copies what it keeps.
		n.collector.Report(time.Unix(0, r.at), r.from, r.pkt)
		r.pkt.Data = nil
		best.reportHead++
	}
	for i := range n.shards {
		sh := &n.shards[i]
		if sh.reportHead == 0 {
			continue
		}
		rem := copy(sh.reports, sh.reports[sh.reportHead:])
		clear(sh.reports[rem:]) // duplicates of the compacted records
		sh.reports = sh.reports[:rem]
		sh.reportHead = 0
		if rem == 0 {
			sh.reportBytes = sh.reportBytes[:0]
		}
	}
}

// markMalicious draws the initial malicious marking. With HonestEndpoints
// the three infrastructure nodes (bootstrap 0, receiver 1, dispatcher 2)
// are exempt, matching the honest-endpoint assumption of the paper's model.
func (n *Network) markMalicious() []bool {
	count := int(n.cfg.MaliciousRate * float64(n.cfg.Nodes))
	if !n.cfg.HonestEndpoints {
		return n.rng.MarkedSet(n.cfg.Nodes, count)
	}
	const infra = 3
	eligible := n.cfg.Nodes - infra
	if count > eligible {
		count = eligible
	}
	out := make([]bool, infra, n.cfg.Nodes)
	return append(out, n.rng.MarkedSet(eligible, count)...)
}

func (n *Network) addNode(idx int, malicious bool) error {
	addr := transport.Addr(fmt.Sprintf("node-%d", idx))
	return n.spawn(addr, dht.RandomID(n.rng), idx, malicious)
}

// spawn creates a live node with the given address and identifier on the
// shard that owns the identifier's zone — in the shard's spare host rebuilt in
// place when it died at an earlier instant, else in a new one — installs it at
// population slot idx (replacing any dead predecessor there), and, for
// churn-eligible slots, schedules its death and replacement.
func (n *Network) spawn(addr transport.Addr, id dht.ID, idx int, malicious bool) error {
	owner := id.Shard(len(n.shards))
	sh := &n.shards[owner]
	ep := n.fabric.Endpoint(owner, addr)
	var onSecret func(protocol.MissionID, []byte)
	if idx == 1 {
		// Only the receiver's deliveries count: a stray PkSecret landing on
		// another node (possible while routing tables converge) is not an
		// emergence. The timestamp comes from the receiver's own shard
		// clock — the loop this callback runs on.
		onSecret = func(mission protocol.MissionID, secret []byte) {
			if _, dup := n.deliveries[mission]; !dup {
				n.deliveries[mission] = delivery{
					at:     sh.sim.Now(),
					secret: append([]byte(nil), secret...),
				}
			}
		}
	}
	host := sh.spare
	if host != nil && sh.spareAt < sh.sim.Now().UnixNano() {
		sh.spare = nil
	} else {
		host = new(protocol.Host)
	}
	err := host.Rebuild(protocol.HostConfig{
		Malicious: malicious,
		Drop:      malicious && n.cfg.Attack.Drops(),
		Reporter:  sh,
		OnSecret:  onSecret,
		Replicas:  n.cfg.Replicas,
		Repair:    n.cfg.Repair,
	}, dht.Config{
		ID:       id,
		Endpoint: ep,
		Clock:    sh.sim,
		Table:    n.cfg.Table,
		Retry:    n.cfg.Retry,
		Scratch:  sh.scratch,
	})
	if err != nil {
		return err
	}
	if n.forger != nil {
		n.forger.AddVictim(addr)
		if malicious {
			n.forger.SetAttacker(idx, ep)
		} else {
			n.forger.ClearAttacker(idx)
		}
	}
	if idx < len(n.nodes) {
		n.nodes[idx] = host // replacement: drop the dead predecessor's state
	} else {
		n.nodes = append(n.nodes, host)
	}

	// Churn: the node dies permanently at an exponential lifetime; the
	// bootstrap (node 0), receiver (node 1) and dispatcher (node 2) are exempt
	// so experiments can always launch missions and observe outcomes — the
	// model's honest, stable endpoints.
	if idx <= 2 {
		return nil
	}
	// Crash-restart windows (ProfileFlap): the endpoint goes transport-down
	// for a sojourn and comes back with routing table, stored values and
	// held custody intact — unlike a churn death, which closes the node and
	// spawns a wiped replacement. The schedule is a pure function of (the
	// shard's fault seed, address) and runs on the owner's clock, toggling
	// the owner's slice of the fabric.
	stopCrash := func() {}
	if sh.fault != nil {
		stopCrash = sh.fault.ManageCrashes(sh.sim, addr, n.fabric)
	}
	if sh.lifetimes == nil {
		return nil
	}
	sl := &n.slots[idx]
	*sl = slot{net: n, sh: sh, idx: idx, stopCrash: stopCrash}
	sh.sim.ScheduleArg(time.Duration(sh.lifetimes.Exp(float64(n.cfg.MeanLifetime))), slotDies, sl)
	return nil
}

// die is the churn death of the node at population slot idx, an event on
// sh, its shard's loop: the node closes, its replacement joins at once and
// its host becomes the shard's spare.
func (n *Network) die(sh *shard, idx int) {
	host := n.nodes[idx]
	node := host.Node()
	// Harvest the dying node's resilience counters before its slot is reused.
	sh.retired.Add(node.Resilience())
	_ = node.Close()
	sh.deaths++
	n.join(sh, node.Contact().Addr, node.ID(), idx)
	sh.spare, sh.spareAt = host, sh.sim.Now().UnixNano()
}

// join spawns the replacement for the dead node at population slot idx — a
// fresh node with wiped state taking over the vacated address and DHT zone —
// and rejoins it: its neighbours already route to its ID and address, so its
// self-lookup stops once it learns nothing (dht.Node.Rejoin). It is malicious
// with probability MaliciousRate, keeping the Sybil fraction stationary as
// churn replenishes the network.
func (n *Network) join(sh *shard, addr transport.Addr, id dht.ID, idx int) {
	// The maliciousness draw comes from the joining node's shard RNG: the
	// death event runs on that shard's loop.
	if err := n.spawn(addr, id, idx, sh.rng.Bool(n.cfg.MaliciousRate)); err != nil {
		// Unreachable by construction: spawn only fails on a nil
		// endpoint/clock or zero ID, and a replacement reuses a valid ID on
		// its predecessor's re-opened endpoint. If it ever fires, the joins
		// counter diverging from deaths is the diagnostic.
		return
	}
	sh.joins++
	n.nodes[idx].Node().Rejoin(n.seeds)
}

// ChurnEvents reports how many permanent deaths and replacement joins have
// occurred so far.
func (n *Network) ChurnEvents() (deaths, joins int) {
	for i := range n.shards {
		deaths += n.shards[i].deaths
		joins += n.shards[i].joins
	}
	return deaths, joins
}

// ForgedContacts reports how many forged contact claims the eclipse
// adversary has emitted so far (zero under other strategies).
func (n *Network) ForgedContacts() uint64 {
	if n.forger == nil {
		return 0
	}
	return n.forger.Forged()
}

// RouteAudit scans every live node's routing table and classifies each
// entry: live if its (identifier, address) binding matches a live node of the
// population, poisoned otherwise. Without churn, poisoned entries are exactly
// the eclipse adversary's forgeries that won admission; with churn,
// not-yet-expired routes to dead nodes count as poisoned too.
func (n *Network) RouteAudit() (live, poisoned int) {
	real := make(map[dht.ID]transport.Addr, len(n.nodes))
	for _, host := range n.nodes {
		node := host.Node()
		real[node.ID()] = node.Contact().Addr
	}
	for _, host := range n.nodes {
		host.Node().Table().Each(func(c dht.Contact) {
			if addr, ok := real[c.ID]; ok && addr == c.Addr {
				live++
			} else {
				poisoned++
			}
		})
	}
	return live, poisoned
}

// ResilienceStats sums the population's fault-recovery counters — retries,
// recovered RPCs, suppressed duplicate deliveries — over the live nodes
// plus every churn-replaced node's final counts.
func (n *Network) ResilienceStats() (total dht.Resilience) {
	for i := range n.shards {
		total.Add(n.shards[i].retired)
	}
	for _, host := range n.nodes {
		total.Add(host.Node().Resilience())
	}
	return total
}

// SendCounts sums the event loops' owner-walk and app-send counts (see
// dht.SendCounts). A loop's counts outlive its nodes, so churn-replaced
// nodes' sends are in them.
func (n *Network) SendCounts() (total dht.SendCounts) {
	for i := range n.shards {
		total.Add(n.shards[i].scratch.Counts())
	}
	return total
}

// FabricStats reports transport-level (sent, delivered, dropped) datagram
// counts.
func (n *Network) FabricStats() (sent, delivered, dropped int) {
	return n.fabric.Stats()
}

// LoopStats reports the event-loop engine's counters: epoch barriers
// executed, epochs with at most one busy shard (the adaptive bound's inline
// fast-forwards), and hand-off outbox capacity growths. All three are pure
// functions of the configuration and seed — independent of GOMAXPROCS and
// worker counts — which is what lets CI gate them. A one-shard network
// crosses no shard boundary, so it runs one epoch per lockstep segment
// (every one an idle skip) and never grows an outbox.
func (n *Network) LoopStats() (epochs, idleSkips, mergeAllocs uint64) {
	return n.lockstep.Epochs(), n.lockstep.IdleSkips(), n.fabric.MergeAllocs()
}

// Now returns the current simulated time: the barrier time every shard
// clock agrees on between Run calls.
func (n *Network) Now() time.Time { return n.lockstep.Now() }

// RunFor advances simulated time by d, executing all due events.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.Now().Add(d)) }

// RunUntil advances simulated time to the given instant. The eclipse forger
// owns no events (it spans every loop): the run is cut into lockstep
// segments at its tick instants and it acts between them, with every loop
// paused at the tick, all earlier reports released to the collector, and its
// sends entering the fabric from this goroutine. Once the loops pause at t,
// each forgets the custody whose horizon has passed (protocol.Expire).
func (n *Network) RunUntil(t time.Time) {
	if n.forger != nil {
		for tick := n.forger.NextTick(); !tick.After(t); tick = n.forger.NextTick() {
			n.lockstep.RunUntil(tick)
			n.forger.Tick()
		}
	}
	n.lockstep.RunUntil(t)
	for i := range n.shards {
		protocol.Expire(n.shards[i].scratch, t)
	}
}

// Settle flushes in-flight traffic by advancing simulated time a few
// minutes. It deliberately does not drain the whole event queue: with churn
// enabled the queue always holds far-future death timers, and jumping to
// them would kill the network.
func (n *Network) Settle() { n.RunFor(5 * time.Minute) }

// Nodes returns the population size: one slot per node, with churn
// replacements taking over their dead predecessor's slot.
func (n *Network) Nodes() int { return len(n.nodes) }

// Cloud exposes the network's cloud store.
func (n *Network) Cloud() *cloud.Store { return n.cloudSt }
