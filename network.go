package selfemerge

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/churn"
	"selfemerge/internal/cloud"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
	"selfemerge/internal/freelist"
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
	// MeanLifetime enables churn: nodes die permanently with exponentially
	// distributed lifetimes of this mean. Zero disables churn.
	MeanLifetime time.Duration
	// Replace keeps the population stationary under churn: every death is
	// followed by a fresh node joining and bootstrapping into the DHT,
	// malicious with probability MaliciousRate — the steady-state network
	// of Section II-C. The replacement adopts the dead node's identifier
	// and address with wiped state, taking over the vacated DHT zone, which
	// is exactly the slot-refill semantics the paper's repair model (and
	// the Monte Carlo engine) assumes. Without Replace the population only
	// shrinks.
	Replace bool
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
	// full retry-hardened arm: dht.RetryPolicy exponential backoff on every
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
	// Seed makes the network fully reproducible.
	Seed uint64
	// SystemRand switches the sender-side cryptographic randomness —
	// mission identifiers, layer keys, GCM nonces, Shamir coefficients —
	// from the default seed-derived ChaCha8 stream to crypto/rand. The
	// deterministic default makes every byte of a run (ciphertexts
	// included) a pure function of Seed; it never affects mission outcomes,
	// which depend on placement and timing, not key values. Real
	// deployments (cmd/emergectl) set SystemRand, because a 64-bit seed is
	// not a key-material secret.
	SystemRand bool
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
	// for mission construction. Seed-derived ChaCha8 by default, crypto/rand
	// with SystemRand.
	cryptoSrc io.Reader
	sender    *protocol.Sender
	// forger is the eclipse flood; nil unless configured, so other runs add
	// no RNG draws and no datagrams. RunUntil drives its ticks at barriers.
	forger *adversary.Forger

	// nodes is the population by slot. After boot a slot is rewritten only
	// by its owner shard's loop (a churn replacement), and read across slots
	// only between runs.
	nodes    []*dht.Node
	receiver *dht.Node

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
	rng   *stats.RNG
	churn *churn.Process // deaths; nil when churn is disabled
	// fault judges what this shard's nodes send and schedules their
	// crash-restart windows; nil unless an active fault profile is configured
	// (a constructed-but-idle engine would still be consulted per datagram).
	fault *fault.Engine
	// scratch is the DHT working memory every node on this loop shares, so it
	// outlives churn replacements instead of being re-bought at each join.
	scratch *dht.Scratch
	// reports defers this shard's malicious-holder observations to the
	// barrier (see releaseReports).
	reports reportQueue

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
	}
	if !cfg.SystemRand {
		// A decorrelated substream of the network seed, so the crypto
		// stream never re-samples the bytes the structural RNG consumes.
		n.cryptoSrc = stats.NewByteStream(stats.Mix64(cfg.Seed, 0xc0de))
	}
	n.sender = protocol.NewSender(n.cryptoSrc)

	sims := make([]*sim.Simulator, cfg.Partition)
	clocks := make([]sim.Clock, cfg.Partition)
	for i := range sims {
		sims[i] = sim.NewSimulator()
		clocks[i] = sims[i]
	}
	n.fabric, err = simnet.NewPartition(clocks, simnet.Config{BaseLatency: latency, Seed: cfg.Seed + 1})
	if err != nil {
		return nil, err
	}
	if err := n.fabric.CheckLookahead(n.fabric.Lookahead()); err != nil {
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
			sh.churn = churn.New(sims[i], churn.Config{MeanLifetime: cfg.MeanLifetime, Seed: churnSeed})
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
		sh.reports.bufs = freelist.List[[]byte]{Max: maxFreeReportBufs}
	}

	if cfg.Attack == adversary.StrategyEclipse && cfg.ForgeRate > 0 {
		n.forger = adversary.NewForger(n.Now(), cfg.ForgeRate, stats.Mix64(cfg.Seed, 0xf049e))
		n.collector.SetZoneSink(n.forger.ObserveZone)
	}

	malicious := n.markMalicious()
	for i := 0; i < cfg.Nodes; i++ {
		if err := n.addNode(i, malicious[i]); err != nil {
			return nil, err
		}
	}
	n.receiver = n.nodes[1]
	seed := []dht.Contact{n.nodes[0].Contact()}
	for _, node := range n.nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	// Settle the join traffic within a bounded window. Draining the whole
	// event queue would fast-forward through every scheduled churn death.
	n.RunFor(time.Minute)
	return n, nil
}

// reportQueue collects one shard's malicious-holder observations during an
// epoch. It is written only from that shard's event loop and drained only at
// barriers, so recs and head need no lock.
type reportQueue struct {
	recs []reportRec
	head int // consumed prefix during a release merge
	// bufs recycles the payload clones of released records, so a steady
	// stream of reports stops allocating once the list has warmed up.
	bufs freelist.List[[]byte]
}

// maxFreeReportBufs bounds reportQueue.bufs: reports drain at every barrier,
// so only a burst between two barriers ever holds more clones than this.
const maxFreeReportBufs = 64

// reportRec is one deferred adversary observation. Its merge coordinates
// are (at, shard, seq); the queue it sits in and its position there supply
// the last two.
type reportRec struct {
	at   int64
	from dht.ID
	pkt  protocol.Packet
	buf  *[]byte // the clone backing pkt.Data
}

// Report implements protocol.Reporter for the hosts on this shard: defer the
// observation into the shard's queue. Concurrent shard loops reporting
// straight into the collector would interleave nondeterministically; the
// barrier merges the queues in (time, shard, seq) order instead. The packet's
// payload is cloned at enqueue: the transport reclaims the handler's buffer
// when the event returns, long before the barrier drain.
func (sh *shard) Report(now time.Time, from dht.ID, pkt protocol.Packet) {
	q := &sh.reports
	buf := q.bufs.Get()
	*buf = append((*buf)[:0], pkt.Data...)
	pkt.Data = *buf
	q.recs = append(q.recs, reportRec{at: now.UnixNano(), from: from, pkt: pkt, buf: buf})
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
		var best *reportQueue
		var bestAt int64
		for i := range n.shards {
			q := &n.shards[i].reports
			if q.head == len(q.recs) {
				continue
			}
			// Queues are at-sorted: a head at or past the horizon parks the
			// whole queue until a later release.
			if at := q.recs[q.head].at; at < horizon && (best == nil || at < bestAt) {
				best, bestAt = q, at
			}
		}
		if best == nil {
			break
		}
		r := &best.recs[best.head]
		n.collector.Report(time.Unix(0, r.at), r.from, r.pkt)
		// The collector cloned what it keeps: the payload clone goes back to
		// the queue's list.
		best.bufs.Put(r.buf)
		r.pkt.Data, r.buf = nil, nil
		best.head++
	}
	for i := range n.shards {
		q := &n.shards[i].reports
		if q.head == 0 {
			continue
		}
		rem := copy(q.recs, q.recs[q.head:])
		clear(q.recs[rem:]) // duplicates of the compacted records
		q.recs = q.recs[:rem]
		q.head = 0
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
// shard that owns the identifier's zone, installs it at population slot idx
// (replacing — and releasing — any dead predecessor there), and, for
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
	host := protocol.NewHost(protocol.HostConfig{
		Clock:     sh.sim,
		Malicious: malicious,
		Drop:      malicious && n.cfg.Attack.Drops(),
		Reporter:  sh,
		OnSecret:  onSecret,
		Replicas:  n.cfg.Replicas,
		Repair:    n.cfg.Repair,
		Retry:     n.cfg.Retry > 1,
	})
	node, err := dht.NewNode(dht.Config{
		ID:       id,
		Endpoint: ep,
		Clock:    sh.sim,
		Table:    n.cfg.Table,
		Retry:    dht.RetryPolicy{Attempts: n.cfg.Retry},
		OnApp:    host.HandleApp,
		Scratch:  sh.scratch,
	})
	if err != nil {
		return err
	}
	host.Attach(node)
	if n.forger != nil {
		n.forger.AddVictim(addr)
		if malicious {
			n.forger.SetAttacker(idx, ep)
		} else {
			n.forger.ClearAttacker(idx)
		}
	}
	if idx < len(n.nodes) {
		n.nodes[idx] = node // replacement: drop the dead predecessor's state
	} else {
		n.nodes = append(n.nodes, node)
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
		stopCrash = sh.fault.ManageCrashes(sh.sim, addr, func(down bool) { n.fabric.SetDown(addr, down) })
	}
	if sh.churn == nil {
		return nil
	}
	sh.churn.ScheduleDeath(func() {
		stopCrash()
		// Harvest the dying node's resilience counters before its slot is
		// reused; without Replace the closed node stays in the population
		// slice and keeps reporting its own totals.
		if n.cfg.Replace {
			sh.retired.Add(node.Resilience())
		}
		_ = node.Close()
		sh.deaths++
		if n.cfg.Replace {
			n.join(sh, addr, id, idx)
		}
	})
	return nil
}

// join spawns the replacement for the dead node at population slot idx — a
// fresh node with wiped state taking over the vacated address and DHT zone —
// and bootstraps it. It is malicious with probability MaliciousRate,
// keeping the Sybil fraction stationary as churn replenishes the network.
func (n *Network) join(sh *shard, addr transport.Addr, id dht.ID, idx int) {
	// The maliciousness draw comes from the joining node's shard RNG: the
	// death event runs on that shard's loop.
	if err := n.spawn(addr, id, idx, sh.rng.Bool(n.cfg.MaliciousRate)); err != nil {
		// Unreachable by construction: spawn only fails on a nil
		// endpoint/clock or zero ID, and a replacement reuses a valid ID on
		// a fresh endpoint. If it ever fires, the joins counter diverging
		// from deaths is the diagnostic.
		return
	}
	sh.joins++
	// Slot 0, the bootstrap node, is exempt from churn: never rewritten.
	n.nodes[idx].Bootstrap([]dht.Contact{n.nodes[0].Contact()}, nil)
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

// RouteAudit scans every current node's routing table and classifies each
// entry: live if its (identifier, address) binding matches a node currently
// in the population, poisoned otherwise. Without churn, poisoned entries are
// exactly the eclipse adversary's forgeries that won admission; with churn,
// not-yet-expired routes to dead nodes count as poisoned too.
func (n *Network) RouteAudit() (live, poisoned int) {
	real := make(map[dht.ID]transport.Addr, len(n.nodes))
	for _, node := range n.nodes {
		real[node.ID()] = node.Contact().Addr
	}
	for _, node := range n.nodes {
		node.Table().Each(func(c dht.Contact) {
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
	for _, node := range n.nodes {
		total.Add(node.Resilience())
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
// sends entering the fabric from this goroutine.
func (n *Network) RunUntil(t time.Time) {
	if n.forger != nil {
		for tick := n.forger.NextTick(); !tick.After(t); tick = n.forger.NextTick() {
			n.lockstep.RunUntil(tick)
			n.forger.Tick()
		}
	}
	n.lockstep.RunUntil(t)
}

// Settle flushes in-flight traffic by advancing simulated time a few
// minutes. It deliberately does not drain the whole event queue: with churn
// enabled the queue always holds far-future death timers, and jumping to
// them would kill the network.
func (n *Network) Settle() { n.RunFor(5 * time.Minute) }

// Nodes returns the population size: one slot per node, with churn
// replacements taking over their dead predecessor's slot. Without Replace,
// slots of churned-out nodes still count.
func (n *Network) Nodes() int { return len(n.nodes) }

// Cloud exposes the network's cloud store.
func (n *Network) Cloud() *cloud.Store { return n.cloudSt }
