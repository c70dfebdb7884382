// Partitioned fabric: one population of endpoints split across S shard
// sub-networks, each delivering local traffic on its own simulator, with
// cross-shard sends turned into timestamped hand-off records merged at the
// epoch barriers of a sim.Lockstep. This is the transport half of the
// partition engine; the conservative-lookahead argument lives with
// sim.Lockstep, and the fabric's base latency is the lookahead it relies on.
package simnet

import (
	"fmt"
	"slices"
	"time"

	"selfemerge/internal/freelist"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// Partition is an in-memory fabric split across S shard sub-networks, with
// one address table: an address's first Endpoint call makes its slot, owned
// by one shard from then on (churn replacements reuse their predecessor's
// address and slot). Every send runs the one Network.send path on the
// sender's shard: sender-down, loss, jitter and the injector's verdict are
// all judged there, at send time, from the source shard's own streams. A
// datagram whose destination lives on the same shard is scheduled on that
// shard's simulator; one bound for another shard becomes a hand-off record
// carrying its absolute delivery time, queued per source shard, and injected
// into the destination simulator at the next barrier in fixed (deliver-time,
// source shard, sequence) order — so the merged event schedule, and therefore
// every observable byte, is a pure function of the configuration, independent
// of how many goroutines run the shard loops. Receiver-side state (down,
// closed) is checked at delivery on the owning shard, so the same script
// yields the same counters at any S.
type Partition struct {
	subs []*Network
	// slots is the address table. It is written only by an address's first
	// Endpoint call, at boot with every loop paused, and after that only read
	// (by the concurrently running shard loops' sends), so it needs no lock.
	slots     map[transport.Addr]*nodeSlot
	outboxes  []outbox
	heads     []int   // per-outbox merge cursor, reused across barriers
	nows      []int64 // per-shard barrier clock, captured once per Flush
	lookahead time.Duration

	mergeAllocs uint64 // outbox capacity growths: the drain's only allocations
}

// outbox is one source shard's pending cross-shard records. It is written
// only from that shard's event loop (or the driving goroutine while all
// loops are paused at a barrier), and drained only at barriers, so it needs
// no lock.
type outbox struct {
	recs  []handoff
	seq   uint64
	grows uint64 // capacity growths, kept per-box: boxes are written concurrently
}

// handoff is one cross-shard datagram: the pooled delivery record (payload
// copy included, slot already the destination's) plus the merge coordinates.
type handoff struct {
	at  int64 // absolute delivery time, Unix nanoseconds
	src int
	seq uint64
	d   *delivery
}

// NewPartition builds a fabric of len(clocks) shard sub-networks, shard i
// delivering its local traffic on clocks[i]. Shard 0 keeps cfg.Seed for its
// jitter RNG — New's plain network is the one-shard case — and higher shards
// draw decorrelated SplitMix64 substreams. The base latency must be
// explicitly positive: it is the lookahead that makes barrier-drained
// hand-offs conservative, so New's zero-means-default rule does not apply
// here, lest a caller's zero silently become a 10ms lookahead.
func NewPartition(clocks []sim.Clock, cfg Config) (*Partition, error) {
	if len(clocks) < 1 {
		return nil, fmt.Errorf("simnet: partition needs at least one shard clock")
	}
	if cfg.BaseLatency <= 0 {
		return nil, fmt.Errorf("simnet: partition needs an explicit positive base latency (the lockstep lookahead), got %v", cfg.BaseLatency)
	}
	return newPartition(clocks, cfg), nil
}

// newPartition builds the fabric of NewPartition (and of New, with one
// clock) for a cfg whose base latency is set.
func newPartition(clocks []sim.Clock, cfg Config) *Partition {
	p := &Partition{
		subs:      make([]*Network, len(clocks)),
		slots:     make(map[transport.Addr]*nodeSlot),
		outboxes:  make([]outbox, len(clocks)),
		heads:     make([]int, len(clocks)),
		nows:      make([]int64, len(clocks)),
		lookahead: cfg.BaseLatency,
	}
	for i, clock := range clocks {
		sub := cfg
		if i > 0 {
			sub.Seed = stats.Mix64(cfg.Seed, uint64(i))
		}
		p.subs[i] = &Network{
			clock:      clock,
			cfg:        sub,
			part:       p,
			shard:      i,
			rng:        stats.NewRNG(sub.Seed),
			deliveries: freelist.List[delivery]{Max: maxFreeDeliveries},
		}
	}
	return p
}

// Lookahead returns the minimum cross-shard latency — the base latency, as
// jitter only adds delay: the sim.Lockstep lookahead this fabric supports.
func (p *Partition) Lookahead() time.Duration { return p.lookahead }

// MergeAllocs returns how many times an outbox had to grow its backing
// array — the hand-off drain's only allocation source. In steady state the
// boxes reach their high-water capacity and the counter stops moving; the
// partitioned benchmark emits it so a regression that re-introduces
// per-record or per-barrier allocation is visible and gateable. Counted
// per box (boxes are written concurrently) and summed here; call it from
// the driving goroutine, like Flush.
func (p *Partition) MergeAllocs() uint64 {
	n := p.mergeAllocs
	for i := range p.outboxes {
		n += p.outboxes[i].grows
	}
	return n
}

// DeliveryMisses sums the shard sub-networks' Network.DeliveryMisses. Call
// it from the driving goroutine, like Flush.
func (p *Partition) DeliveryMisses() uint64 {
	var n uint64
	for _, sub := range p.subs {
		n += sub.DeliveryMisses()
	}
	return n
}

// Endpoint attaches (or, for a churn replacement, re-attaches) an endpoint
// with the given address on shard. The address's first attachment makes its
// slot in the table, owned by shard from then on; re-attaching it on another
// shard panics, because migrating an address would race the lookups that
// concurrently running shard loops make on the send path. A closed endpoint
// on the slot is re-opened in place, so a churn replacement costs no record:
// only a new address, or one whose endpoint is still open, gets a fresh one,
// and a live endpoint replaced that way is closed.
func (p *Partition) Endpoint(shard int, addr transport.Addr) transport.Endpoint {
	net := p.subs[shard]
	sl := p.slots[addr]
	switch {
	case sl == nil:
		// First attachment: boot-time, single-goroutine (see slots).
		sl = &nodeSlot{net: net}
		p.slots[addr] = sl
	case sl.net != net:
		panic(fmt.Sprintf("simnet: endpoint %s owned by shard %d, re-attached on shard %d", addr, sl.net.shard, shard))
	case sl.ep.closed:
		sl.ep.closed, sl.down = false, false
		return sl.ep
	default:
		_ = sl.ep.Close()
	}
	sl.ep, sl.down = &endpoint{slot: sl, addr: addr}, false
	return sl.ep
}

// SetInjector installs shard's own injector (Network.SetInjector). Each
// sub-network judges on its own loop, so a stateful injector (a fault.Engine's
// burst chain) must be one instance per shard.
func (p *Partition) SetInjector(shard int, inj Injector) {
	p.subs[shard].SetInjector(inj)
}

// SetDown marks an endpoint unavailable (Network.SetDown). An address no
// endpoint ever attached has no state to mark.
func (p *Partition) SetDown(addr transport.Addr, down bool) {
	if sl := p.slots[addr]; sl != nil {
		sl.down = down
	}
}

// Stats sums (sent, delivered, dropped) across the shard sub-networks.
// Sends are counted on the source shard and deliveries/drops on the
// destination, so the totals match what one fused network would report.
func (p *Partition) Stats() (sent, delivered, dropped int) {
	for _, sub := range p.subs {
		s, d, r := sub.Stats()
		sent += s
		delivered += d
		dropped += r
	}
	return sent, delivered, dropped
}

// enqueue queues one cross-shard record — already judged, payload copied,
// bound for the destination sub-network — on the source shard's outbox. Runs
// inside the source shard's deterministic execution (its event loop, or the
// driver at a barrier), which is what makes the per-source sequence
// reproducible.
func (p *Partition) enqueue(src int, at int64, d *delivery) {
	box := &p.outboxes[src]
	if len(box.recs) == cap(box.recs) {
		box.grows++ // steady state keeps the high-water array; see MergeAllocs
	}
	box.recs = append(box.recs, handoff{at: at, src: src, seq: box.seq, d: d})
	box.seq++
}

// cmpHandoff orders one outbox's records: (at, seq). The source shard is
// constant within a box, so this is the global (at, src, seq) order
// restricted to the box.
func cmpHandoff(a, b handoff) int {
	switch {
	case a.at < b.at:
		return -1
	case a.at > b.at:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// Flush drains every outbox and injects the records into their destination
// simulators in fixed (deliver-time, source shard, sequence) order: the
// sim.Lockstep Exchange hook. It must run while every shard loop is paused
// at a common barrier; the lookahead guarantees every queued record's
// delivery time is at or after that barrier, so nothing is scheduled in the
// past (asserted per record — a violation means a lookahead/epoch-bound bug
// upstream, not recoverable data). Destination-side state (endpoint
// attached, down, handler) is checked at delivery time by the ordinary
// deliver path.
//
// The drain is a k-way merge over the boxes rather than a concat-and-sort:
// each box is sorted in place by (at, seq) — jitter makes send order differ
// from delivery order within a box — and the merge repeatedly takes the
// earliest (at, src) head, which with per-box seq monotonicity reproduces
// the exact global (at, src, seq) order the old scratch sort produced,
// without copying records into a scratch slab or allocating a comparator.
func (p *Partition) Flush() {
	total := 0
	for i := range p.outboxes {
		recs := p.outboxes[i].recs
		if len(recs) > 1 {
			slices.SortFunc(recs, cmpHandoff)
		}
		total += len(recs)
		p.heads[i] = 0
	}
	if total == 0 {
		return
	}
	for i, sub := range p.subs {
		p.nows[i] = sub.clock.Now().UnixNano()
	}
	for n := 0; n < total; n++ {
		best := -1
		var bestAt int64
		for i := range p.outboxes {
			j := p.heads[i]
			if j == len(p.outboxes[i].recs) {
				continue
			}
			// Strict < keeps the lowest source shard on delivery-time ties.
			if at := p.outboxes[i].recs[j].at; best == -1 || at < bestAt {
				best, bestAt = i, at
			}
		}
		box := &p.outboxes[best]
		h := box.recs[p.heads[best]]
		box.recs[p.heads[best]].d = nil // do not pin pooled records past injection
		p.heads[best]++
		dst := h.d.slot.net
		now := p.nows[dst.shard]
		if h.at < now {
			panic(fmt.Sprintf("simnet: cross-shard record for shard %d timestamped %dns before its clock; lookahead/epoch-bound violation", dst.shard, now-h.at))
		}
		// The record left its source's list and goes back to dst's once
		// delivered: hand the source one of dst's free records now, so a
		// lopsided cross-shard flow drains no shard's list into another's.
		if dst.deliveries.Len() > 0 {
			p.subs[h.src].deliveries.Put(dst.deliveries.Get())
		}
		dst.clock.ScheduleArg(time.Duration(h.at-now), deliver, h.d)
	}
	for i := range p.outboxes {
		p.outboxes[i].recs = p.outboxes[i].recs[:0]
	}
}
