// Package simnet is an in-memory transport for large in-process DHT
// networks, the role Overlay Weaver's emulation mode played in the paper's
// evaluation. Delivery runs through the discrete-event simulator with
// configurable base latency and jitter, and an Injector that rules on loss,
// delay and duplication; endpoints can be marked down
// (a crash-restart window) or closed (node death).
package simnet

import (
	"fmt"
	"time"

	"selfemerge/internal/freelist"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// Config shapes the simulated network.
type Config struct {
	// BaseLatency is the one-way delivery delay (default 10ms).
	BaseLatency time.Duration
	// Jitter is the maximum extra uniform delay added per message.
	Jitter time.Duration
	// Seed seeds the network's private RNG (jitter decisions).
	Seed uint64
}

// Verdict is an injector's ruling on one in-flight datagram.
type Verdict struct {
	// Drop discards the datagram (counted in the fabric's dropped stat).
	Drop bool
	// Extra is added to the delivery delay.
	Extra time.Duration
	// DupExtra, when positive, delivers a second copy DupExtra after the
	// first — duplication with reordering.
	DupExtra time.Duration
}

// Injector perturbs deliveries beyond the uniform jitter model. Judge
// receives the fabric clock's current time and the endpoints of the
// datagram; implementations may keep internal state (one network's calls
// all come from its loop).
type Injector interface {
	Judge(now time.Time, from, to transport.Addr) Verdict
}

func (c Config) withDefaults() Config {
	if c.BaseLatency == 0 {
		c.BaseLatency = 10 * time.Millisecond
	}
	return c
}

// Network is the in-memory message fabric: one shard sub-network of a
// Partition, which a plain network built by New is the one shard of. It
// belongs to the loop of its clock: endpoints send, deliveries fire and
// faults flip availability from that loop's events, or from the driver while
// the loop is paused (boot, a Lockstep barrier), so nothing here is locked.
type Network struct {
	clock sim.Clock
	cfg   Config

	// part is the fabric this network is one shard of, numbered shard: it
	// holds the address table, and the hand-off queues that sends whose
	// destination another shard owns divert into instead of this network's
	// event loop.
	part  *Partition
	shard int

	// inject, when non-nil, rules on every datagram in flight (SetInjector).
	inject Injector

	// Delivery records recycle per network, so their payload buffers survive
	// garbage collections; a cross-shard record is taken from the sending
	// shard's list and returned to the receiving one's, and Partition.Flush
	// hands the sender a record of the receiver's in its place.
	deliveries freelist.List[delivery]

	rng *stats.RNG // jitter draws, in send order

	sent      int
	delivered int
	dropped   int
}

// New creates a network that delivers messages on the given clock: the one
// shard of a fabric of its own.
func New(clock sim.Clock, cfg Config) *Network {
	return newPartition([]sim.Clock{clock}, cfg.withDefaults()).subs[0]
}

// maxFreeDeliveries bounds the records the fabric keeps once the boot burst
// drains: boot has every self-lookup in flight at once, each record's buffer
// grown to FIND_NODE-reply size, while a drive keeps at most 84 in flight on
// one loop, so the bound is about twice that and the boot's surplus is
// garbage instead of pinned for the run.
const maxFreeDeliveries = 128

// SetInjector installs the injector that rules on every datagram the network
// sends: drops, extra delay, duplication (see internal/fault). Judge runs on
// the network's loop, right after the jitter draw, so a deterministic
// injector keeps the fabric byte-deterministic. Boot-time wiring, before any
// traffic.
func (n *Network) SetInjector(inj Injector) { n.inject = inj }

// DeliveryMisses reports how many delivery records the network has allocated
// because its list was empty (freelist.List.Misses).
func (n *Network) DeliveryMisses() uint64 { return n.deliveries.Misses() }

// nodeSlot is the fabric's per-address state: the owning sub-network, the
// attached endpoint and the transient-down flag — everything the send and
// delivery paths consult per datagram. The address's first Endpoint call
// makes it, and it is never removed (a run's addresses are bounded by its
// node count); a replacement re-attaches to its predecessor's, so a pointer
// stands for the address: an endpoint holds its own slot, a delivery its
// destination's, and a datagram costs one table lookup, at send. A closed
// endpoint stays on its slot until the next Endpoint call for the address
// re-opens it.
type nodeSlot struct {
	net  *Network
	ep   *endpoint
	down bool
}

// Endpoint attaches (or replaces) an endpoint with the given address on this
// network (Partition.Endpoint).
func (n *Network) Endpoint(addr transport.Addr) transport.Endpoint {
	return n.part.Endpoint(n.shard, addr)
}

// SetDown marks an endpoint unavailable without detaching it — the
// transient unavailability of Section II-C. While down it drops what it sends
// (judged at send time) and what reaches it (judged at delivery time).
func (n *Network) SetDown(addr transport.Addr, down bool) { n.part.SetDown(addr, down) }

// Stats reports (sent, delivered, dropped) message counts.
func (n *Network) Stats() (sent, delivered, dropped int) {
	return n.sent, n.delivered, n.dropped
}

// send is the one send path. A datagram's fate is settled here, at send
// time, inside the sending network's deterministic execution: the sender's
// transient down state, then jitter and the injector's verdict drawn from
// this network's streams. Only where it goes next depends on the
// destination's owner — this network's own event loop, or (when another
// shard of the partition owns it) that shard's hand-off outbox. Receiver-side
// state is checked at delivery, where the receiver lives.
func (n *Network) send(src *endpoint, to transport.Addr, payload []byte) {
	tsl := n.part.slots[to]
	n.sent++
	if src.slot.down || tsl == nil || (tsl.net == n && (tsl.down || tsl.ep.closed)) {
		// Immediate drop: no payload copy, no RNG draw, no delivery event.
		// An address no endpoint ever attached, or a closed one, can never
		// receive — endpoint replacement (churn re-join) re-opens within the
		// same simulator event as the close, so no in-flight window observes
		// the gap. A foreign destination's state is its owner's to judge, at
		// delivery.
		n.dropped++
		return
	}
	delay, dup, ok := n.judge(src.addr, to)
	if !ok {
		n.dropped++
		return
	}
	n.launch(tsl, src.addr, payload, delay)
	if dup > 0 {
		// An injector-duplicated datagram: a second pooled record trailing
		// the first, each releasing independently after its own handler call.
		n.launch(tsl, src.addr, payload, delay+dup)
	}
}

// judge draws one datagram's in-flight fate — jitter, then the injector's
// verdict, in that fixed order — and returns its delivery delay, the lag of
// an injector-made duplicate (0: none), and whether it survives at all. The
// delay is never below BaseLatency, which is what lets a Partition use the
// base latency as its lockstep lookahead.
func (n *Network) judge(from, to transport.Addr) (delay, dup time.Duration, ok bool) {
	delay = n.cfg.BaseLatency
	if n.cfg.Jitter > 0 {
		delay += time.Duration(n.rng.Uint64n(uint64(n.cfg.Jitter)))
	}
	if n.inject != nil {
		v := n.inject.Judge(n.clock.Now(), from, to)
		if v.Drop {
			return 0, 0, false
		}
		delay += v.Extra
		dup = v.DupExtra
	}
	return delay, dup, true
}

// launch puts one surviving datagram in flight toward the endpoint on tsl,
// delay from now. The payload is copied into a pooled delivery record: the
// sender may reuse its buffer the moment Send returns, and the record (buffer
// included) is reclaimed once the handler returns (handlers copy what they
// keep, per the transport contract). Scheduling through ScheduleArg with the
// package-level deliver function makes the steady-state per-message path
// allocation-free: no payload garbage, no closure, no timer box. A record
// bound for another shard waits in this shard's outbox for the next barrier
// instead.
func (n *Network) launch(tsl *nodeSlot, from transport.Addr, payload []byte, delay time.Duration) {
	d := n.deliveries.Get()
	d.slot, d.from = tsl, from
	d.msg = append(d.msg[:0], payload...)
	if tsl.net == n {
		n.clock.ScheduleArg(delay, deliver, d)
		return
	}
	n.part.enqueue(n.shard, n.clock.Now().UnixNano()+int64(delay), d)
}

// delivery is one in-flight datagram: a recycled record carrying its own
// payload copy and its destination's slot.
type delivery struct {
	slot *nodeSlot
	from transport.Addr
	msg  []byte
}

// deliver is the delivery event callback: hand the datagram to the
// destination handler (or count the drop) and recycle the record. Only the
// receiver's state matters here — a datagram already on the wire does not
// care that its sender has since flapped down — and the slot shows it as it
// is now, whatever endpoint has re-attached since the send.
func deliver(v any) {
	d := v.(*delivery)
	tsl := d.slot
	n := tsl.net
	if tsl.down || tsl.ep.recv == nil || tsl.ep.closed {
		n.dropped++
	} else {
		n.delivered++
		tsl.ep.recv.Receive(d.from, d.msg)
	}
	d.slot = nil
	n.deliveries.Put(d)
}

type endpoint struct {
	slot   *nodeSlot // this address's slot, on the network it sends from
	addr   transport.Addr
	recv   transport.Receiver
	closed bool
}

func (e *endpoint) Addr() transport.Addr { return e.addr }

func (e *endpoint) SetHandler(h transport.Handler) { e.recv = h }

func (e *endpoint) SetReceiver(r transport.Receiver) { e.recv = r }

func (e *endpoint) Send(to transport.Addr, payload []byte) error {
	if e.closed {
		return transport.ErrClosed
	}
	if len(payload) > transport.MaxDatagram {
		return fmt.Errorf("simnet: payload %d exceeds %d bytes", len(payload), transport.MaxDatagram)
	}
	e.slot.net.send(e, to, payload)
	return nil
}

// Close marks the endpoint closed and drops its receiver. The record stays
// on its slot, for the next Endpoint call for its address to re-open.
func (e *endpoint) Close() error {
	e.closed = true
	e.recv = nil
	return nil
}
