package protocol

import (
	"container/heap"
	"errors"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/freelist"
)

// Reporter receives a copy of every packet a compromised holder observes
// (the adversary's collection channel). Implemented by
// adversary.Collector.
type Reporter interface {
	Report(now time.Time, from dht.ID, pkt Packet)
}

// HostConfig configures one node's protocol runtime. Its clock and retry arm
// are its node's: hold and repair timers run on dht.Config.Clock, and a node
// that retries (dht.Config.Retry above 1) backs every repair push with a
// second one (grantTick, scheduleShareRefresh).
type HostConfig struct {
	// Malicious marks the node as adversary-controlled: every packet it
	// sees is reported to Reporter, and if Drop is set it discards
	// everything instead of forwarding (the drop attack).
	Malicious bool
	// Drop activates the drop attack on malicious nodes.
	Drop bool
	// Reporter collects intelligence from malicious nodes.
	Reporter Reporter
	// OnSecret fires when a PkSecret reaches this node (the receiver role).
	OnSecret func(mission MissionID, secret []byte)
	// Replicas is how many closest nodes receive each forwarded packet
	// (default 2). Scenario runs that cross-validate against the Monte
	// Carlo model use 1 so every holder slot maps to one physical node.
	Replicas int
	// Repair enables protocol-level churn repair: key grants carrying a
	// column width and holding period are periodically re-pushed to the
	// current owners of their column's slots, so replacements of dead
	// holders regain the layer key from a surviving custodian — the repair
	// process of Section II-C that the Monte Carlo model assumes. The key
	// share scheme repairs its just-in-time material the same way: column-1
	// key grants refresh through this path, and scattered Shamir shares are
	// re-granted to same-zone replacement custodians once per holding
	// period (scheduleShareRefresh).
	Repair bool
}

// Host is the holder-side protocol engine of one DHT node. It buffers
// packages and key material per mission, peels onion layers as the needed
// keys become available, and forwards on the hold schedule. It holds its
// node by value, so the two are one record, which a churn join rebuilds in
// place once it has closed (Rebuild), and runs on the node's dispatch
// context (see dht.Node): HandleApp and the hold and repair timers are that
// loop's events, so custody is not locked.
type Host struct {
	cfg  HostConfig
	node dht.Node

	// ledger is the custody of every host on the node's loop.
	ledger *ledger
	// live counts this host's records in the ledger's index, spent ones
	// included, which maxLiveRecords bounds.
	live int
}

// Custody bounds. Each is a constant set above every honest plan, and each
// refusal is counted (Refusals).
const (
	// maxHoldAhead is how far ahead of now a deadline may lie, so a forged
	// far-future HoldUntil pins no record and no timer for longer. The
	// longest honest plan hides a key for five mean lifetimes
	// (examples/longterm), five months at a month's lifetime.
	maxHoldAhead = 366 * 24 * time.Hour
	// lateGrace is how long past its deadline material at a Ref is still
	// taken: a record's horizon is its latest deadline plus lateGrace, and a
	// spent record refuses until then. The latest honest material seen came
	// 9.7 min past its deadline, at holders of an eclipse sweep (forge 60)
	// under burst loss with three retries; on every benchmark workload and
	// golden none came past its deadline at all.
	lateGrace = 15 * time.Minute
	// maxLiveRecords bounds the records one host keeps at once, spent ones
	// up to their horizon included: the most seen is 36, at
	// BenchmarkRetainedHeap's planner shape.
	maxLiveRecords = 1024
	// maxFreeCustody is how many spent records a loop keeps for reuse.
	maxFreeCustody = 64
)

// Refusals counts the material the hosts of one loop refused at a custody
// bound.
type Refusals struct {
	// Horizon is material whose deadline lay more than maxHoldAhead ahead,
	// or more than lateGrace behind.
	Horizon uint64
	// Records is material that would have made a record at a host keeping
	// maxLiveRecords.
	Records uint64
	// Shares is new share coordinates at a collection of maxShares.
	Shares uint64
}

// ledger is the custody of every host on one dispatch context, in the slot
// the loop keeps for it (dht.Node.App): the records up to their horizon,
// owed or spent, indexed by (host incarnation, mission, Ref); their free
// list; the aging heap that forgets a record at its horizon; and the refusal
// counts. Like the rest of the loop's scratch it is not locked. The event
// path looks the index up and never ranges over it, so send order comes
// from the event sequence alone.
type ledger struct {
	index map[custodyKey]*custody
	free  freelist.List[custody]
	aging agingHeap

	refused Refusals
}

// ledgerOf returns the ledger in a loop's application slot, making it there
// first.
func ledgerOf(app *any) *ledger {
	if *app == nil {
		*app = &ledger{free: freelist.List[custody]{Max: maxFreeCustody}}
	}
	return (*app).(*ledger)
}

// custodyKey indexes a loop's custody: one record per Ref of a mission at one
// host incarnation (dht.Node.Incarnation): a host rebuilt in place has a new
// one.
type custodyKey struct {
	mission     MissionID
	ref         Ref
	incarnation uint32
}

// custody is everything a holder keeps at one Ref of a mission: the layer key,
// the Shamir shares collected towards it, the package it opens (or a central
// package) and the first repair loop armed there. Its life is collecting (key
// material and package arrive) → keyed → held → peeled → forwarded →
// forgotten: once its package is sent on (spend) it keeps nothing but its
// place in the index, where it refuses its Ref's material; it leaves the
// index at its horizon and goes back to the loop's free list once no event
// points at it. Hold, grant-tick and repush events take pointers into it,
// and do nothing once it is stale.
type custody struct {
	host   *Host
	ledger *ledger
	id     custodyKey
	// armed counts the hold, grant-tick and repush events that point at the
	// record or its repair loops.
	armed int32
	// until is the latest deadline of the material taken at the record.
	until int64
	// key is the layer key once granted or oracle-confirmed (hasKey): K_c of
	// the multipath schemes and CK_c column-wide, SK_{c,s} per slot. A grant
	// loop pushes it.
	key seal.Key
	// shares are the Shamir shares collected towards key.
	shares Shares
	// hold is the package custody: the main onion column-wide (joint/share
	// copies are deduped), the slot onion per slot, or a central package.
	hold heldPackage
	// loop is the first churn-repair loop armed at this Ref; a second one (a
	// grant and a share collection at one Ref, which no honest sender
	// produces) spills into a record of its own.
	loop refresh
	// aging is the record's place in its ledger's aging heap, or -1 once it
	// has left the index.
	aging int32

	hasKey bool
	// keyFailed marks a granted key that did not open the held package:
	// neither can change once set, so the key is not tried again (recovery
	// from shares still is).
	keyFailed bool
	// repair is set once the share collection has an armed churn-repair
	// refresh (one per holding period, see scheduleShareRefresh).
	repair bool
	// forwarded is set once the package has been sent on (spend).
	forwarded bool
}

// record returns the record at the packet's (mission, Ref), making it on
// first use, or nil when the host refuses the packet: its deadline lies
// outside the hold horizon, the record at the Ref is spent, or the host
// keeps maxLiveRecords records already. A record the packet finds takes its
// deadline if it is later.
func (h *Host) record(pkt Packet) *custody {
	l := h.ledger
	now := h.node.Clock().Now().UnixNano()
	l.expire(now)
	if pkt.HoldUntil > now+int64(maxHoldAhead) || pkt.HoldUntil <= now-int64(lateGrace) {
		l.refused.Horizon++
		return nil
	}
	k := custodyKey{pkt.Mission, pkt.Ref(), h.node.Incarnation()}
	if rec := l.index[k]; rec != nil {
		if rec.forwarded {
			return nil // sent on: the Ref is forgotten
		}
		if pkt.HoldUntil > rec.until {
			rec.until = pkt.HoldUntil
			heap.Fix(&l.aging, int(rec.aging))
		}
		return rec
	}
	if h.live == maxLiveRecords {
		l.refused.Records++
		return nil
	}
	rec := l.free.Get()
	rec.host, rec.ledger, rec.id, rec.until = h, l, k, pkt.HoldUntil
	if l.index == nil {
		l.index = make(map[custodyKey]*custody)
	}
	l.index[k] = rec
	heap.Push(&l.aging, rec)
	h.live++
	return rec
}

// custodyAt returns the record h keeps at (mission, ref), or nil.
func (h *Host) custodyAt(mission MissionID, ref Ref) *custody {
	return h.ledger.index[custodyKey{mission, ref, h.node.Incarnation()}]
}

// recycle returns a record that has left the index and that no event points
// at to the free list, with its key material zeroed and the capacity of its
// share buffers kept. A stale record's custody clone is left to the
// collector: its host may since have been built on another loop.
func (l *ledger) recycle(c *custody) {
	if !c.stale() {
		c.host.releaseCustody(&c.hold)
	}
	c.forget()
	*c = custody{shares: c.shares, aging: -1}
	l.free.Put(c)
}

// expire takes the records whose horizon (until + lateGrace) has passed at
// now out of the index, and recycles each that no event points at (else its
// last event does, done).
func (l *ledger) expire(now int64) {
	for len(l.aging) > 0 && l.aging[0].until+int64(lateGrace) <= now {
		c := heap.Pop(&l.aging).(*custody)
		delete(l.index, c.id)
		if h := c.host; h.node.Incarnation() == c.id.incarnation {
			h.live--
		}
		if c.armed == 0 {
			l.recycle(c)
		}
	}
}

// Expire forgets, on the loop of s, the custody whose horizon has passed at
// now, as the next packet one of its hosts takes would, and drops the index
// and the aging heap once they are empty: a network calls it whenever a run
// pauses, so a quiet loop gives its custody memory back. Only the free list
// stays.
func Expire(s *dht.Scratch, now time.Time) {
	l, ok := (*s.App()).(*ledger)
	if !ok {
		return
	}
	if l.expire(now.UnixNano()); len(l.index) == 0 {
		l.index, l.aging = nil, nil
	}
}

// agingHeap orders a ledger's indexed records by horizon.
type agingHeap []*custody

func (a agingHeap) Len() int           { return len(a) }
func (a agingHeap) Less(i, j int) bool { return a[i].until < a[j].until }
func (a agingHeap) Swap(i, j int) {
	a[i], a[j] = a[j], a[i]
	a[i].aging, a[j].aging = int32(i), int32(j)
}
func (a *agingHeap) Push(x any) {
	c := x.(*custody)
	c.aging = int32(len(*a))
	*a = append(*a, c)
}
func (a *agingHeap) Pop() any {
	old := *a
	c := old[len(old)-1]
	old[len(old)-1] = nil
	c.aging = -1
	*a = old[:len(old)-1]
	return c
}

// after arms one of the record's events, delay from now.
func (c *custody) after(delay time.Duration, event func(any), arg any) {
	c.armed++
	c.host.node.Clock().ScheduleArg(delay, event, arg)
}

// done ends one of the record's events: the last of a record that has left
// the index recycles it.
func (c *custody) done() {
	if c.armed--; c.armed == 0 && c.aging < 0 {
		c.ledger.recycle(c)
	}
}

// heldPackage is a package waiting on its keys and/or its hold timer.
type heldPackage struct {
	pkt Packet
	// plain is the peeled layer's plaintext, checked at peel (onion.Open) and
	// viewed at forward (onion.View), once peeled is set.
	plain []byte
	// buf is the custody clone backing pkt.Data, taken from the node's loop;
	// it goes back there once the sealed bytes are dead (see releaseCustody).
	buf    *[]byte
	held   bool
	peeled bool
	due    bool
}

// holdPackage takes custody of pkt in the record: it clones the payload into a
// buffer of the node's loop — a packet's delivery buffer is recycled when the
// handler returns — and arms the hold timer, one lead before HoldUntil. A
// holder's custody therefore lives in exactly one place, a buffer the loop
// owns, referenced by one record, until releaseCustody hands it back.
func (c *custody) holdPackage(pkt Packet) {
	h := c.host
	buf := h.node.Bufs().Get()
	*buf = append((*buf)[:0], pkt.Data...)
	pkt.Data = *buf
	c.hold = heldPackage{pkt: pkt, buf: buf, held: true}
	// A deadline already past is due now: the difference is not taken, so a
	// forged deadline at the start of time does not wrap round to its end.
	var delay time.Duration
	if now := h.node.Clock().Now().UnixNano(); pkt.HoldUntil > now {
		delay = time.Duration(pkt.HoldUntil-now) - lead(pkt)
	}
	c.after(delay, holdDue, c)
}

// resolveLead is how long before a package's deadline its holder starts the
// owner walks of its forward, whose sends the node then holds until the
// deadline itself (dht.Node.SendBufToOwners). It covers a walk on a loss-free
// fabric with room to spare: seven or so 10 ms rounds here, about 2 s at a
// 300 ms wide-area round trip. A walk lasts as long as its slowest query,
// though, and under burst loss one in twenty outlives the lead (seconds, up
// to about 12 s); the send does not wait for such a walk but leaves at the
// deadline to the owners that have answered so far, and the walk's end tops
// up any final owner they missed. Longer only resolves against older routing state: a
// lead of a whole refresh margin (Step/16) gave holder slots to Sybils that
// an on-time walk routed around.
const resolveLead = 2 * time.Second

// lead is how long before pkt's HoldUntil its holder resolves the next hop:
// resolveLead, and for a package with repair loops at most half its refresh
// margin, so the last repair push at the Ref still comes before the forward
// spends the record (spend).
func lead(pkt Packet) time.Duration {
	if pkt.Step > 0 {
		return min(resolveLead, margin(pkt)/2)
	}
	return resolveLead
}

// stale reports whether the record's host has closed, or been rebuilt, since
// the record was made. Hold, grant-tick and repush events are never
// cancelled: one that finds its record stale does nothing, because a
// custodian that churned out neither peels nor forwards, and the host may
// since hold another node's custody.
func (c *custody) stale() bool {
	return c.host.node.Closed() || c.host.node.Incarnation() != c.id.incarnation
}

// holdDue is a hold timer's event, one lead before the package's deadline,
// which does nothing on a stale record. A central package is delivered; an
// onion forwards once peeled (advance). Either send leaves at HoldUntil.
func holdDue(arg any) {
	rec := arg.(*custody)
	defer rec.done()
	h := rec.host
	if rec.stale() {
		return
	}
	hp := &rec.hold
	hp.due = true
	if hp.pkt.Kind != PkCentral {
		h.advance(rec)
		return
	}
	sendPacket(&h.node, hp.pkt.Target, Packet{
		Mission: hp.pkt.Mission,
		Kind:    PkSecret,
		Data:    hp.pkt.Data,
	}, 1, hp.pkt.HoldUntil)
	rec.spend()
}

// releaseCustody returns the custody clone to the loop once the sealed bytes
// are dead: after a successful peel the record owns fresh plaintext, and a
// sent package has already been encoded. A steady mission workload thus
// re-uses a small set of clone buffers instead of allocating one per
// custody.
func (h *Host) releaseCustody(hp *heldPackage) {
	if hp.buf == nil {
		return
	}
	hp.pkt.Data = nil
	h.node.Bufs().Put(hp.buf)
	hp.buf = nil
}

// spend ends the record's duty once its package has been sent on: by
// forwardMain, forwardSlot or a central holdDue. It drops the plaintext and
// the custody clone, and then the key material (forget); the record stays in
// the index, refusing its Ref's material, until its horizon (expire). Nothing
// sent still needs them: every send encodes synchronously, the peel is done,
// and every repair push at the Ref comes due a refresh margin before
// HoldUntil, ahead of the lead the forward waited for. A backup push, half a
// margin before HoldUntil, can run in the forward's instant or after it, as
// can a grant loop's when its grant came in late; then its last push forgets
// instead.
func (c *custody) spend() {
	c.forwarded = true
	c.host.releaseCustody(&c.hold)
	c.hold.plain = nil
	if c.loop.pushes == 0 {
		c.forget()
	}
}

// forget zeroes the record's key and its shares.
func (c *custody) forget() {
	c.shares.reset()
	c.key = seal.Key{}
}

// NewHost creates a host and builds its DHT node from node, whose OnApp is
// the host itself: a caller-supplied OnApp is an error.
func NewHost(cfg HostConfig, node dht.Config) (*Host, error) {
	h := new(Host)
	if err := h.Rebuild(cfg, node); err != nil {
		return nil, err
	}
	return h, nil
}

// Rebuild makes h a new host in place, as NewHost makes one: its custody index
// is dropped, not cleared, and its node built again (dht.Node.Init) with h as
// its OnApp. h must be a zero Host or a closed one; Rebuild panics on an open
// host. The events the old host armed find their records stale. What its
// closed node drained ran in the instant it closed (DESIGN.md, "Death →
// join"), so a host rebuilt at a later instant is reached by nothing else but
// the owner sends its node parked, which find the node built again and send
// nothing.
func (h *Host) Rebuild(cfg HostConfig, node dht.Config) error {
	if node.OnApp != nil {
		return errors.New("protocol: a host is its node's OnApp")
	}
	return h.build(cfg, node, h)
}

// build is Rebuild with the node's OnApp given.
func (h *Host) build(cfg HostConfig, node dht.Config, onApp dht.AppHandler) error {
	node.OnApp = onApp
	if err := h.node.Init(node); err != nil {
		return err
	}
	h.cfg, h.ledger, h.live = cfg, ledgerOf(h.node.App()), 0
	return nil
}

// Node returns the host's DHT node.
func (h *Host) Node() *dht.Node { return &h.node }

// Records reports how many custody records the host owes: one per Ref of a
// mission at which it holds a package it has not sent on, or material whose
// deadline has not passed. A spent record owes nothing, nor does one past its
// deadline that holds no package; its loop keeps either until its horizon,
// the one to refuse late material and the other in case its package comes
// late, and forgets it then.
func (h *Host) Records() int {
	owed, now := 0, h.node.Clock().Now().UnixNano()
	for k, rec := range h.ledger.index {
		if k.incarnation == h.node.Incarnation() && !rec.forwarded &&
			(rec.hold.held || rec.until > now) && rec.until+int64(lateGrace) > now {
			owed++
		}
	}
	return owed
}

// Refusals reports what the hosts on h's loop refused at a custody bound.
func (h *Host) Refusals() Refusals { return h.ledger.refused }

// HandleApp is the dht.Config.OnApp entry point. The payload follows the
// transport delivery contract — it is valid only for the duration of the
// call (it usually aliases a recycled delivery buffer) — so every path
// below that keeps packet bytes beyond this call clones them first.
func (h *Host) HandleApp(from dht.Contact, payload []byte) {
	pkt, err := DecodePacket(payload)
	if err != nil {
		return
	}
	if h.cfg.Malicious && h.cfg.Reporter != nil {
		h.cfg.Reporter.Report(h.node.Clock().Now(), from.ID, pkt)
	}
	if h.cfg.Malicious && h.cfg.Drop && pkt.Kind != PkKeyGrant {
		// Drop attack: swallow every package. Key grants are still accepted
		// (and re-granted during repair) — the attack targets the packages,
		// and refusing routine key maintenance would expose the Sybil.
		return
	}

	switch pkt.Kind {
	case PkSecret:
		if h.cfg.OnSecret != nil {
			h.cfg.OnSecret(pkt.Mission, pkt.Data)
		}
		return
	case PkCentral:
		h.onCentral(pkt)
	case PkKeyGrant:
		h.onKeyGrant(pkt)
	case PkMainOnion, PkSlotOnion:
		h.onOnion(pkt)
	case PkColShare, PkSlotShare:
		h.onShare(pkt)
	}
}

func (h *Host) onCentral(pkt Packet) {
	if rec := h.record(pkt); rec != nil && !rec.hold.held {
		rec.holdPackage(pkt) // a replica already in custody pays no clone
	}
}

func (h *Host) onKeyGrant(pkt Packet) {
	key, err := seal.KeyFromBytes(pkt.Data)
	if err != nil {
		return
	}
	rec := h.record(pkt)
	if rec == nil {
		return
	}
	if !rec.hasKey {
		rec.key, rec.hasKey = key, true
		h.scheduleGrantRefresh(rec, pkt)
	}
	h.advance(rec)
}

// refresh is one armed churn-repair loop and the argument of its events: a
// key grant's, which pushes its record's key, or a share collection's. pkt is
// the triggering packet without its payload (a recycled delivery buffer).
type refresh struct {
	rec *custody
	pkt Packet
	// pushes counts the repush events armed and not yet run.
	pushes int
}

// newLoop returns the record's repair loop for pkt: its own, or a spilled
// one when that is taken.
func (c *custody) newLoop(pkt Packet) *refresh {
	r := &c.loop
	if r.rec != nil {
		r = new(refresh)
	}
	*r = refresh{rec: c, pkt: pkt}
	r.pkt.Data = nil
	return r
}

// margin is how far ahead of a period boundary a refresh of pkt fires.
func margin(pkt Packet) time.Duration { return time.Duration(pkt.Step / 16) }

// schedulePush arms one repush of the loop, delay from now.
func (r *refresh) schedulePush(delay time.Duration) {
	r.pushes++
	r.rec.after(delay, repush, r)
}

// scheduleGrantRefresh arms the custody-refresh loop for a newly received
// key grant: at the end of every holding period, while the key is still
// needed (before the grant's HoldUntil), the custodian re-pushes the grant
// to the current owners of its column's slots. A holder that churned out is
// thereby replaced by a fresh node that receives the layer key from this
// surviving custodian — the once-per-period repair of Section II-C. Dead
// custodians do not refresh (a tick on a stale record returns without pushing
// or re-arming), so a column whose every custodian dies within one period
// loses its key, as the Monte Carlo model prescribes.
func (h *Host) scheduleGrantRefresh(rec *custody, pkt Packet) {
	if !h.cfg.Repair || pkt.Step <= 0 || pkt.Width == 0 {
		return
	}
	rec.newLoop(pkt).armTick(time.Duration(pkt.Step) - margin(pkt))
}

// deadline is the instant from which a grant loop pushes no more.
func (r *refresh) deadline() int64 {
	if r.pkt.direct() {
		return r.pkt.HoldUntil
	}
	return r.pkt.HoldUntil - int64(margin(r.pkt))
}

// armTick arms the grant loop's next tick, delay from now. A tick at or past
// the loop's deadline pushes nothing (grantTick), so it keeps its place in the
// event sequence as spentTick, which does not point at the record: the
// record can be recycled at its forward instead of a period later.
func (r *refresh) armTick(delay time.Duration) {
	clock := r.rec.host.node.Clock()
	if clock.Now().UnixNano()+int64(delay) >= r.deadline() {
		clock.ScheduleArg(delay, spentTick, nil)
		return
	}
	r.rec.after(delay, grantTick, r)
}

// spentTick is a grant tick past its loop's deadline.
func spentTick(any) {}

// grantTick is one period of a key grant's refresh loop. It fires slightly
// before each period boundary (one margin early): a replacement then regains
// the key before the next onion hop arrives, and the re-grant exposure lands
// strictly inside the waiting period it repairs — the window Equation (1)'s
// release-ahead bookkeeping (and the Monte Carlo engine) attributes it to.
//
// Multipath grants stop refreshing at the boundary before their column's
// onion arrives: repairing storage periods only is what the Monte Carlo
// replacement-draw bookkeeping models. The share scheme's direct column-1
// grants live a single period — custody and carry coincide — so their one
// refresh fires inside it, just before the forward deadline.
func grantTick(arg any) {
	r := arg.(*refresh)
	defer r.rec.done()
	h := r.rec.host
	if r.rec.stale() || h.node.Clock().Now().UnixNano() >= r.deadline() {
		return
	}
	r.push()
	if h.node.Retrying() {
		// Retry-hardened repair: one identical backup push half a margin
		// later — still half a margin before the boundary, so the exposure
		// stays inside the period — covering a first push eaten whole by a
		// burst or partition window.
		r.schedulePush(margin(r.pkt) / 2)
	}
	r.armTick(time.Duration(r.pkt.Step))
}

// replicas returns the forwarding replica count.
func (h *Host) replicas() int {
	if h.cfg.Replicas > 0 {
		return h.cfg.Replicas
	}
	return holderReplicas
}

func (h *Host) onOnion(pkt Packet) {
	rec := h.record(pkt)
	if rec == nil || rec.hold.held {
		return // replica already in custody (joint fan-in), no clone paid
	}
	rec.holdPackage(pkt)
	h.advance(rec)
}

func (h *Host) onShare(pkt Packet) {
	share, err := ParseShare(pkt.Data)
	if err != nil {
		return
	}
	rec := h.record(pkt)
	if rec == nil {
		return
	}
	added, err := rec.shares.Add(share)
	if err != nil {
		h.ledger.refused.Shares++
	}
	if added && h.repairableShare(pkt) && !rec.repair {
		rec.repair = true
		h.scheduleShareRefresh(rec, pkt)
	}
	h.advance(rec)
}

// repairableShare reports whether a received share participates in churn
// repair: the host repairs, the packet carries its holding period, and the
// share is still ahead of its forward deadline.
func (h *Host) repairableShare(pkt Packet) bool {
	return h.cfg.Repair && pkt.Step > 0 && pkt.HoldUntil > h.node.Clock().Now().UnixNano()
}

// scheduleShareRefresh arms the just-in-time share repair for a column (or
// slot) whose first share just arrived: once per holding period — which for
// shares, living exactly one period between scatter and consumption, means
// once, slightly before the forward deadline — the custodian re-pushes every
// share it holds to the current owners of the column's slots. A same-zone
// replacement that took over a died custodian's slot mid-period thereby
// regains the key material from a surviving sibling (column-key shares
// fan out to every carrier, so any survivor can repair the whole column),
// mirroring the multipath schemes' column-key re-grant of Section II-C. The
// packages themselves (slot onions, the main onion copy) are single-custody
// and die with their holder — repair restores shares, not onions — so the
// delivery model gains no repair term; the margin (1/16 of a holding period)
// keeps the re-grant exposure strictly inside the period it repairs.
func (h *Host) scheduleShareRefresh(rec *custody, pkt Packet) {
	delay := time.Duration(pkt.HoldUntil-h.node.Clock().Now().UnixNano()) - margin(pkt)
	if delay <= 0 {
		return // received during the repair window itself (a re-grant)
	}
	r := rec.newLoop(pkt)
	r.schedulePush(delay)
	if h.node.Retrying() {
		// Retry-hardened repair: a second regrant half a margin later (still
		// before the forward deadline). repush re-reads the held share
		// collection each time, so the backup tick is idempotent — it only
		// changes anything when the first tick's pushes were lost.
		r.schedulePush(delay + margin(pkt)/2)
	}
}

// repush is a repair push's event: the loop's push, after which a loop
// whose record has forwarded and that has no push left armed forgets the
// record's key material (see spend).
func repush(arg any) {
	r := arg.(*refresh)
	defer r.rec.done()
	r.pushes--
	r.push()
	if r.pushes == 0 && r.rec.forwarded && r == &r.rec.loop {
		r.rec.forget()
	}
}

// push is one repair push of a refresh's material, the grant's key or every
// share held at its Ref, to the current owners of the slots it repairs:
// column-wide material carrying its column's width goes to every slot of the
// column (any surviving custodian repairs the whole column); slot material is
// per-carrier, so only its own slot can be repaired. A stale record pushes
// nothing. Each share blob is encoded into one loop buffer, which sendPacket
// copies.
func (r *refresh) push() {
	h := r.rec.host
	if r.rec.stale() {
		return
	}
	var shares []shamir.Share
	if r.pkt.Kind != PkKeyGrant {
		shares = r.rec.shares.list
	}
	pkt, first, end := r.pkt, int(r.pkt.Slot), int(r.pkt.Slot)+1
	if pkt.Ref().Slot == ColumnWide && pkt.Width > 1 {
		first, end = 0, int(pkt.Width)
	}
	blob := h.node.Bufs().Get()
	for s := first; s < end; s++ {
		pkt.Slot = uint16(s)
		to := SlotID(pkt.Mission, int(pkt.Column), s)
		if pkt.Kind == PkKeyGrant {
			pkt.Data = r.rec.key[:]
			sendPacket(&h.node, to, pkt, h.replicas(), 0)
		}
		for _, sh := range shares {
			if sh.Data == nil {
				continue // a conflicting coordinate
			}
			*blob = AppendEncodeShareBlob((*blob)[:0], sh)
			pkt.Data = *blob
			sendPacket(&h.node, to, pkt, h.replicas(), 0)
		}
	}
	h.node.Bufs().Put(blob)
}

// ShareInventory reports how many column-key and slot-key share coordinates
// (m, X) the host currently holds for one mission column/slot. Exposed for
// tests and churn-repair observability.
func (h *Host) ShareInventory(mission MissionID, column, slot int) (ofColumnKey, ofSlotKey int) {
	held := func(rec *custody) int {
		if rec == nil {
			return 0
		}
		return len(rec.shares.list)
	}
	return held(h.custodyAt(mission, Ref{int32(column), ColumnWide})), held(h.custodyAt(mission, Ref{int32(column), int32(slot)}))
}

// advance runs the peel/forward state machine on the record an event
// touched: peel its onion once the key is at hand, and forward it once it is
// both peeled and due. No other record can have moved: only holdDue sets due
// and only peel sets peeled, each followed at once by an advance of its own
// record. So send order comes from the event sequence alone, which is what
// makes whole-scenario runs reproducible under a fixed seed.
func (h *Host) advance(rec *custody) {
	// Peel with the key at the Ref: granted directly, or recovered from
	// shares and validated against the onion itself.
	h.peel(rec)
	if hp := &rec.hold; hp.peeled && hp.due && !rec.forwarded {
		if rec.id.ref.Slot == ColumnWide {
			h.forwardMain(int(rec.id.ref.Column), hp)
		} else {
			h.forwardSlot(rec.id.ref, hp)
		}
		rec.spend()
	}
}

// peel attempts to open the record's held onion with its key or, failing
// that, with a key recovered from the collected shares (Shares.Recover) —
// the authenticated onion layer is the oracle that tells the true key from
// garbage, so stale, churn-duplicated or adversary-injected shares can delay
// recovery but never poison it. A key the oracle confirms becomes the
// record's key. Every open is one-shot (onion.Open): a peel leaves the
// plaintext and nothing else, and a granted key that fails is marked, not
// retried, while recovery from shares stays open: a forged grant at the Ref
// does not lock the true key out.
func (h *Host) peel(rec *custody) {
	hp := &rec.hold
	if !hp.held || hp.peeled || hp.pkt.Kind == PkCentral {
		return
	}
	if rec.hasKey && !rec.keyFailed {
		if plain, err := onion.Open(rec.key, hp.pkt.Data); err == nil {
			h.opened(hp, plain)
			return
		}
		rec.keyFailed = true
	}
	rec.shares.Recover(func(key seal.Key) bool {
		plain, err := onion.Open(key, hp.pkt.Data)
		if err != nil {
			return false
		}
		h.opened(hp, plain)
		rec.key, rec.hasKey = key, true
		return true
	})
}

// opened records a peel: the package keeps the plaintext, and the sealed
// clone is dead.
func (h *Host) opened(hp *heldPackage, plain []byte) {
	hp.plain, hp.peeled = plain, true
	h.releaseCustody(hp)
}

// maxViewItems is how many hops and shares a forward views on its stack; a
// layer listing more is viewed in an array of its own.
const maxViewItems = 16

// forwardMain forwards a peeled, due main onion (or makes the final secret
// delivery).
func (h *Host) forwardMain(col int, hp *heldPackage) {
	var items [maxViewItems][]byte
	layer, err := onion.View(hp.plain, items[:0])
	if err != nil {
		return
	}
	pkt := hp.pkt
	if layer.Payload != nil {
		// Terminal layer: release the secret to the receiver.
		if len(layer.NextHops) > 0 {
			target, err := dht.IDFromBytes(layer.NextHops[0])
			if err != nil {
				return
			}
			sendPacket(&h.node, target, Packet{
				Mission: pkt.Mission,
				Kind:    PkSecret,
				Data:    layer.Payload,
			}, 1, pkt.HoldUntil)
		}
		return
	}
	for s, hop := range layer.NextHops {
		target, err := dht.IDFromBytes(hop)
		if err != nil {
			continue
		}
		sendPacket(&h.node, target, Packet{
			Mission:   pkt.Mission,
			Kind:      PkMainOnion,
			Column:    uint16(col + 1),
			Slot:      uint16(s),
			HoldUntil: pkt.HoldUntil + pkt.Step,
			Step:      pkt.Step,
			Target:    pkt.Target,
			Data:      layer.Rest,
		}, h.replicas(), pkt.HoldUntil)
	}
}

// forwardSlot scatters a peeled, due slot onion: deliver the column share to
// every next carrier, each slot share to its slot, and the remaining slot
// onion down its own stream. A scattered share's Data is ParseShareTag's view
// into the peeled layer, never a copy. A layer naming a malformed hop
// forwards nothing.
func (h *Host) forwardSlot(ref Ref, hp *heldPackage) {
	var items [maxViewItems][]byte
	layer, err := onion.View(hp.plain, items[:0])
	if err != nil {
		return
	}
	pkt := hp.pkt
	hops := layer.NextHops
	for _, hop := range hops {
		if len(hop) != dht.IDBytes {
			return
		}
	}
	next := Packet{
		Mission:   pkt.Mission,
		Column:    uint16(ref.Column + 1),
		HoldUntil: pkt.HoldUntil + pkt.Step,
		Step:      pkt.Step,
	}
	for _, blob := range layer.Shares {
		slot, share, err := ParseShareTag(blob)
		if err != nil {
			continue
		}
		p := next
		p.Kind, p.Data = PkSlotShare, share
		first, end := slot, slot+1
		if slot == ColumnWide {
			// Width rides along so any receiving custodian can repair
			// the whole column's share custody (column-key shares fan
			// out to every carrier).
			p.Kind, p.Width = PkColShare, uint16(len(hops))
			first, end = 0, len(hops)
		}
		for s := first; s < min(end, len(hops)); s++ {
			p.Slot = uint16(s)
			sendPacket(&h.node, dht.ID(hops[s]), p, h.replicas(), pkt.HoldUntil)
		}
	}
	if layer.Rest != nil && int(ref.Slot) < len(hops) {
		next.Kind, next.Slot, next.Data = PkSlotOnion, uint16(ref.Slot), layer.Rest
		sendPacket(&h.node, dht.ID(hops[ref.Slot]), next, h.replicas(), pkt.HoldUntil)
	}
}
