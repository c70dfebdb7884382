// Package sim provides the discrete-event engine every node runs on: a
// clock with a hierarchical timer wheel and deterministic ordering, driven on
// virtual time by the simulations (Run, RunUntil, Lockstep) and on wall time
// by the real-socket deployment (udp.Loop).
package sim

import (
	"math/bits"
	"slices"
	"time"

	"selfemerge/internal/freelist"
)

// Clock is what a component sees of the loop that owns it: the time, and
// timers whose callbacks run on that same loop. Its one implementation is
// *Simulator; what differs between a simulation and a deployment is who
// drives the simulator, not the timer semantics. Like everything a loop owns,
// a Clock is used only from its loop — from an event callback, or by the
// driver while the loop is not running — so Stop()==true always means the
// callback never runs.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// AfterFunc schedules fn to run on the loop d from now and returns a
	// cancellable timer.
	AfterFunc(d time.Duration, fn func()) Timer
	// Schedule arms fn to run d from now with no way to cancel it — the
	// hot-path form for the per-message delivery and refresh events that are
	// never stopped, sparing the Timer interface allocation AfterFunc pays.
	Schedule(d time.Duration, fn func())
	// ScheduleArg arms fn(arg) like Schedule. With a package-level fn and a
	// pooled pointer arg the schedule is allocation-free — no closure, no
	// Timer box — which is what the transport uses for per-datagram delivery
	// events.
	ScheduleArg(d time.Duration, fn func(any), arg any)
	// AfterFuncArg arms fn(arg) to run d from now and returns a cancellable
	// value handle: the whole arm/fire/stop cycle allocates nothing — the form
	// the per-RPC timeout path uses.
	AfterFuncArg(d time.Duration, fn func(any), arg any) ArgTimer
}

// Timer is a cancellable scheduled callback.
type Timer interface {
	// Stop cancels the timer if it has not fired; it reports whether the
	// call prevented the callback from running.
	Stop() bool
}

// ArgTimer is the cancellable handle to one generation of a pooled event
// record: a value struct, so storing it in a caller's record costs no
// allocation. The zero value is inert (Stop reports false).
type ArgTimer struct {
	ev  *event
	gen uint64
}

// Stop cancels the event; it reports true if the call prevented the callback
// from running. A handle whose record was dispatched and recycled observes a
// generation mismatch and reports false without touching the new occupant.
// Cancellation is lazy: the record stays in its wheel slot and is discarded
// when a drain or scan reaches it.
func (h ArgTimer) Stop() bool {
	if h.ev == nil || h.ev.state != h.gen<<stateGenShift {
		return false
	}
	h.ev.state |= stateCancelled
	h.ev.sim.live--
	return true
}

// Simulator is a deterministic discrete-event scheduler implementing Clock.
// Events scheduled for the same instant run in scheduling order. It has no
// lock: a simulator, what is scheduled on it and the driver that runs it are
// one dispatch context (DESIGN.md, "Dispatch contexts"), and only its own
// event callbacks, or the driver while no event is running, touch it.
//
// The event loop is the inner loop of every live-scenario shard, so its hot
// path is tuned accordingly: event records are recycled through a freelist
// with generation-checked timer handles instead of allocating per schedule,
// and cancellation is one store to the event's packed state word.
//
// The pending queue is a hierarchical timer wheel (Varghese–Lauck), not a
// binary heap: schedule and cancel are O(1) amortized regardless of how many
// far-future timers are parked (per-node refresh loops, hold timers), where
// a heap charges every near-horizon RPC timeout and delivery event O(log n)
// against the whole standing population. Events that share a wheel tick are
// sorted by (at, seq) once when their slot is drained, so dispatch order is
// the exact (at, seq) total order the heap produced.
type Simulator struct {
	now   int64 // current time, Unix nanoseconds
	live  int   // queued events that have not run and are not cancelled
	seq   uint64
	wheel timerWheel

	// NextAt cache: the earliest pending event as of the last full scan.
	// Self-invalidating — dispatch, cancellation and recycling all change the
	// event's packed state word, so cachedAt() detects staleness without
	// any bookkeeping on those paths; schedule keeps the cache exact by
	// min-updating it. This is what keeps the Lockstep barrier's per-epoch
	// probe O(1) on idle shards.
	cachedEv  *event
	cachedGen uint64

	events freelist.List[event]
}

// maxFreeEvents bounds a simulator's recycled event records: above the
// in-flight swing of a 2000-node loop's boot burst, so only a far larger
// population's boot sheds its surplus to the collector once it drains.
const maxFreeEvents = 1 << 16

// NewSimulator returns a simulator starting at the Unix epoch plus one hour
// (so negative offsets in tests stay valid).
func NewSimulator() *Simulator {
	s := &Simulator{events: freelist.List[event]{Max: maxFreeEvents}}
	s.now = time.Unix(0, 0).Add(time.Hour).UnixNano()
	s.wheel.wtime = s.now >> wheelShift
	return s
}

// Now returns the current time.
func (s *Simulator) Now() time.Time {
	return time.Unix(0, s.now)
}

// AfterFunc schedules fn at now+d. Non-positive d runs fn at the current
// instant (still through the queue, preserving deterministic order).
func (s *Simulator) AfterFunc(d time.Duration, fn func()) Timer {
	return s.schedule(d, fn, nil, nil)
}

// Schedule arms fn at now+d with no cancellation handle: the same queue and
// ordering as AfterFunc without boxing a Timer per event — the form the
// per-message simnet delivery path uses.
func (s *Simulator) Schedule(d time.Duration, fn func()) {
	s.schedule(d, fn, nil, nil)
}

// ScheduleArg arms fn(arg) at now+d with no cancellation handle. With a
// package-level fn and a pooled pointer arg the call is allocation-free.
func (s *Simulator) ScheduleArg(d time.Duration, fn func(any), arg any) {
	s.schedule(d, nil, fn, arg)
}

// AfterFuncArg arms fn(arg) at now+d and returns a cancellable value handle
// over the pooled event record — the allocation-free cancellable form.
func (s *Simulator) AfterFuncArg(d time.Duration, fn func(any), arg any) ArgTimer {
	return s.schedule(d, nil, fn, arg)
}

func (s *Simulator) schedule(d time.Duration, fn func(), argFn func(any), arg any) ArgTimer {
	if d < 0 {
		d = 0
	}
	ev := s.events.Get()
	ev.sim = s
	// The record comes pending under the generation its release bumped:
	// handles to its previous life see a mismatch and are no-ops.
	gen := ev.state >> stateGenShift
	ev.at = s.now + int64(d)
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	s.live++
	ev.seq = s.seq
	s.seq++
	s.wheel.insert(ev)
	// Keep a valid NextAt cache exact: a new event can only lower the
	// minimum. A stale cache stays stale (the new event need not be the
	// minimum of the whole wheel) and the next NextAt recomputes.
	if s.cachedAt() != 1<<63-1 && ev.at < s.cachedEv.at {
		s.cachedEv, s.cachedGen = ev, gen
	}
	return ArgTimer{ev: ev, gen: gen}
}

// cachedAt returns the cached earliest pending timestamp, or maxInt64 when
// the cache is stale (its event dispatched, cancelled or recycled — all of
// which move the packed state word off the cached generation's pending
// value).
func (s *Simulator) cachedAt() int64 {
	if s.cachedEv != nil && s.cachedEv.state == s.cachedGen<<stateGenShift {
		return s.cachedEv.at
	}
	return 1<<63 - 1
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (s *Simulator) Step() bool {
	return s.step(1<<63 - 1)
}

// step pops and runs the earliest pending event with at <= bound, reporting
// whether one ran.
func (s *Simulator) step(bound int64) bool {
	ev := s.popRunnable(bound)
	if ev == nil {
		return false
	}
	if ev.at > s.now {
		s.now = ev.at
	}
	fn, argFn, arg := ev.fn, ev.argFn, ev.arg
	// Release before dispatch: the record is out of the wheel, so fn may
	// reuse it immediately; its own handle now fails the generation check.
	s.release(ev)
	if fn != nil {
		fn()
	} else {
		argFn(arg)
	}
	return true
}

// Run executes events until the queue is empty.
func (s *Simulator) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to the deadline.
func (s *Simulator) RunUntil(deadline time.Time) {
	bound := deadline.UnixNano()
	for s.step(bound) {
	}
	// No runnable event at or before the deadline is left; advance the clock.
	if s.now < bound {
		s.now = bound
	}
}

// RunFor advances the simulation by d.
func (s *Simulator) RunFor(d time.Duration) {
	s.RunUntil(s.Now().Add(d))
}

// Pending returns the number of queued events (cancelled ones excluded) in
// O(1): the counter moves on schedule, cancel and dispatch, so lazily
// deleted cancelled records still in the wheel never distort it.
func (s *Simulator) Pending() int {
	return s.live
}

// NextAt returns the timestamp of the earliest pending event, purging lazily
// cancelled records it scans past; ok is false when nothing is pending. It
// is the lookahead probe of the Lockstep epoch barrier: the barrier sizes
// each epoch from the earliest event across all member simulators. The
// result is cached on the event itself (see cachedAt), so back-to-back
// barrier probes of an idle shard cost one load, and the purge on a
// recompute keeps a stale cancelled minimum from pinning the epoch size.
func (s *Simulator) NextAt() (at time.Time, ok bool) {
	if t := s.cachedAt(); t != 1<<63-1 {
		return time.Unix(0, t), true
	}
	ev := s.wheel.minPending(s)
	if ev == nil {
		s.cachedEv = nil
		return time.Time{}, false
	}
	s.cachedEv, s.cachedGen = ev, ev.state>>stateGenShift
	return time.Unix(0, ev.at), true
}

// release returns a finished (run or cancelled) event record to the freelist,
// bumping its generation so any still-held timer handle turns inert.
func (s *Simulator) release(ev *event) {
	gen := ev.state >> stateGenShift
	ev.fn = nil // do not retain the callback or its argument while pooled
	ev.argFn = nil
	ev.arg = nil
	ev.state = (gen + 1) << stateGenShift // next life, pending
	s.events.Put(ev)
}

// Event state is a packed word: the low bit says cancelled, the rest is a
// generation counter bumped each time the record is recycled, so one compare
// tells a handle to a pending event from a stale or spent one.
const (
	stateCancelled = 1
	stateGenShift  = 1
)

// event is a pooled scheduled callback record. Exactly one of fn and argFn
// is set: argFn events carry their argument in the record, so hot callers
// with a package-level argFn schedule without allocating a closure.
type event struct {
	at    int64 // Unix nanoseconds
	seq   uint64
	fn    func()
	argFn func(any)
	arg   any
	sim   *Simulator
	state uint64
}

// cmpEvent is the dispatch total order: (at, seq). seq is unique per
// simulator, so the order is strict.
func cmpEvent(a, b *event) int {
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

// popRunnable pops the earliest pending event with at <= bound, discarding
// lazily cancelled records along the way.
func (s *Simulator) popRunnable(bound int64) *event {
	w := &s.wheel
	for {
		// Fast path: the current-tick run queue, already in (at, seq) order.
		for w.runIdx < len(w.runQ) {
			ev := w.runQ[w.runIdx]
			if ev.at > bound {
				return nil
			}
			w.runQ[w.runIdx] = nil
			w.runIdx++
			if ev.state&stateCancelled == 0 {
				s.live--
				return ev
			}
			// Cancelled (Stop already decremented the live counter): drop the
			// record and keep looking.
			s.release(ev)
		}
		w.runQ = w.runQ[:0]
		w.runIdx = 0
		if !w.advance(bound) {
			return nil
		}
	}
}

// Timer wheel geometry. A tick is 2^wheelShift nanoseconds (~1.05ms — a
// fifth of the default simnet latency, so delivery events spread over a few
// slots). Four levels of 256 slots cover relative horizons of ~268ms, ~68.7s,
// ~4.9h and ~52 days from the wheel's current time; anything farther parks in
// an unsorted overflow list and is re-binned when the horizon reaches it (no
// simulated experiment runs close to that long, so the overflow is a
// correctness backstop, not a hot path).
const (
	wheelShift  = 20
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
)

// timerWheel is the hierarchical pending-event structure.
//
// Invariants: every queued event's tick (at >> wheelShift) is >= wtime
// (events scheduled into the past are clamped into the run queue); runQ
// holds the events of tick wtime sorted by (at, seq) with runQ[:runIdx]
// consumed; a level-L slot holds events whose tick was wtime+[2^(8L),
// 2^(8(L+1))) away when inserted, and advance never moves wtime past the
// cascade boundary of an occupied slot, so no slot is ever stranded behind
// the wheel's current time.
type timerWheel struct {
	wtime  int64 // current wheel time, in ticks
	runQ   []*event
	runIdx int

	slots [wheelLevels][wheelSlots][]*event
	occ   [wheelLevels][wheelSlots / 64]uint64
	// slotMin caches a lower bound on each occupied slot's earliest pending
	// timestamp: exact after inserts (O(1) min-update), stale-low after lazy
	// cancellations, meaningless while the occupancy bit is clear. minPending
	// consults these instead of scanning buckets, verifying only the winning
	// slot — without this, every barrier probe would rescan the thousands of
	// parked far-horizon timers in the first level-2/3 buckets.
	slotMin [wheelLevels][wheelSlots]int64

	overflow []*event
	// overflowMin is a lower bound on the overflow entries' ticks (exact on
	// insert, stale-early after cancellations), so advance knows when a
	// re-bin could matter without scanning.
	overflowMin int64
}

// insert files ev by its distance from the wheel's current time.
func (w *timerWheel) insert(ev *event) {
	tick := ev.at >> wheelShift
	r := tick - w.wtime
	switch {
	case r <= 0:
		// Current tick: keep the run queue sorted so dispatch order stays
		// (at, seq).
		w.insertRun(ev)
	case r < 1<<wheelBits:
		w.put(0, int(tick&wheelMask), ev)
	case r < 1<<(2*wheelBits):
		w.put(1, int((tick>>wheelBits)&wheelMask), ev)
	case r < 1<<(3*wheelBits):
		w.put(2, int((tick>>(2*wheelBits))&wheelMask), ev)
	case r < 1<<(4*wheelBits):
		w.put(3, int((tick>>(3*wheelBits))&wheelMask), ev)
	default:
		if len(w.overflow) == 0 || tick < w.overflowMin {
			w.overflowMin = tick
		}
		w.overflow = append(w.overflow, ev)
	}
}

func (w *timerWheel) put(level, slot int, ev *event) {
	if w.occ[level][slot>>6]&(1<<(slot&63)) == 0 {
		w.occ[level][slot>>6] |= 1 << (slot & 63)
		w.slotMin[level][slot] = ev.at
	} else if ev.at < w.slotMin[level][slot] {
		w.slotMin[level][slot] = ev.at
	}
	w.slots[level][slot] = append(w.slots[level][slot], ev)
}

// insertRun places ev into the live run queue at its (at, seq) position
// among the not-yet-consumed entries — the mid-drain schedule path, so an
// event scheduled at the current instant from a running callback dispatches
// in the same pass, in order, exactly like the heap did.
func (w *timerWheel) insertRun(ev *event) {
	i, _ := slices.BinarySearchFunc(w.runQ[w.runIdx:], ev, cmpEvent)
	i += w.runIdx
	w.runQ = append(w.runQ, nil)
	copy(w.runQ[i+1:], w.runQ[i:])
	w.runQ[i] = ev
}

// nextOcc returns the cyclic distance (1..wheelSlots) from slot `from` to
// the next occupied slot at the given level, or 0 when the level is empty.
// Distance wheelSlots means the only occupied slot is `from` itself, a full
// lap away.
func (w *timerWheel) nextOcc(level, from int) int {
	occ := &w.occ[level]
	// Bits strictly after `from` in its word, then the following words, then
	// wrap around up to and including `from`.
	word, bit := from>>6, from&63
	if v := occ[word] &^ (1<<(bit+1) - 1); v != 0 {
		return bits.TrailingZeros64(v) + word<<6 - from
	}
	for i := 1; i <= wheelSlots/64; i++ {
		j := (word + i) % (wheelSlots / 64)
		v := occ[j]
		if i == wheelSlots/64 {
			v &= 1<<(bit+1) - 1 // final partial word: slots up to `from`
		}
		if v != 0 {
			d := bits.TrailingZeros64(v) + j<<6 - from
			if d <= 0 {
				d += wheelSlots
			}
			return d
		}
	}
	return 0
}

// advance moves the wheel forward to the next occupied tick at or before
// bound (nanoseconds), draining that tick's slot into the run queue in
// (at, seq) order, cascading higher-level slots whose windows open along the
// way. It reports whether the run queue gained entries; false means nothing
// is pending at or before the bound (the wheel time then rests at the bound
// tick, so later inserts keep their level maths tight).
func (w *timerWheel) advance(bound int64) bool {
	boundTick := bound >> wheelShift
	for {
		jump := int64(1<<63 - 1)
		// Earliest occupied level-0 slot: its tick is wtime + distance.
		if d := w.nextOcc(0, int(w.wtime&wheelMask)); d != 0 && d < wheelSlots {
			jump = w.wtime + int64(d)
		}
		// Earliest cascade boundary per higher level: the d-th crossing of a
		// 2^(8L)-tick block opens slot cur+d, so an occupied slot at cyclic
		// distance d cascades at block_start(wtime) + d blocks.
		for level := 1; level < wheelLevels; level++ {
			shift := uint(level * wheelBits)
			cur := int((w.wtime >> shift) & wheelMask)
			if d := w.nextOcc(level, cur); d != 0 {
				t := (w.wtime>>shift + int64(d)) << shift
				if t < jump {
					jump = t
				}
			}
		}
		if len(w.overflow) > 0 {
			// The overflow's nearest entry enters the top level's horizon at
			// this tick; re-binning any later would strand it.
			if t := w.overflowMin - (1<<(wheelLevels*wheelBits) - 1); t > w.wtime && t < jump {
				jump = t
			} else if t <= w.wtime {
				jump = w.wtime // re-bin immediately
			}
		}
		if jump > boundTick {
			if boundTick > w.wtime {
				w.wtime = boundTick
			}
			return false
		}
		w.wtime = jump
		if len(w.overflow) > 0 && w.overflowMin-(1<<(wheelLevels*wheelBits)-1) <= w.wtime {
			w.rebinOverflow()
		}
		// Cascade outside-in: a top-level slot re-bins into the levels below,
		// which may include the lower-level slot that opens at this same tick.
		for level := wheelLevels - 1; level >= 1; level-- {
			shift := uint(level * wheelBits)
			if jump&(1<<shift-1) != 0 {
				continue
			}
			slot := int((jump >> shift) & wheelMask)
			w.drainSlot(level, slot)
		}
		// The level-0 slot of the new current tick becomes the run queue.
		w.drainSlot(0, int(w.wtime&wheelMask))
		if len(w.runQ) > 0 {
			slices.SortFunc(w.runQ, cmpEvent)
			return true
		}
	}
}

// drainSlot empties one slot: level 0 into the run queue (all entries share
// the current tick), higher levels re-binned by their now-smaller distance.
func (w *timerWheel) drainSlot(level, slot int) {
	evs := w.slots[level][slot]
	if len(evs) == 0 {
		return
	}
	w.occ[level][slot>>6] &^= 1 << (slot & 63)
	if level == 0 {
		if len(w.runQ) == 0 {
			// Steal the slot's backing array for the run queue and donate the
			// (consumed, capacity-bearing) old run queue to the slot, so the
			// steady state recycles two arrays instead of growing either.
			w.runQ, w.slots[level][slot] = evs, w.runQ[:0]
			return
		}
		w.runQ = append(w.runQ, evs...)
		w.slots[level][slot] = evs[:0]
		return
	}
	w.slots[level][slot] = evs[:0]
	for i, ev := range evs {
		w.insert(ev)
		evs[i] = nil
	}
}

// rebinOverflow re-files every overflow entry; those still beyond the top
// horizon return to the overflow with an exact new minimum.
func (w *timerWheel) rebinOverflow() {
	// Detach the list before re-inserting: entries still beyond the horizon
	// re-append to w.overflow, which must not alias the array being walked.
	evs := w.overflow
	w.overflow = nil
	w.overflowMin = 1<<63 - 1
	for _, ev := range evs {
		w.insert(ev)
	}
}

// minPending returns the earliest pending event without advancing the wheel
// — the pure peek behind NextAt. Candidates must be compared across levels:
// after the wheel time drifts within a block, an un-cascaded higher-level
// slot's window can overlap level 0's, so the earliest occupied slot of
// every level is consulted (within one level the earliest-cascading slot
// provably holds that level's minimum — slots' tick windows are disjoint
// blocks in cascade order). Selection runs over the cached slotMin bounds;
// only the winning slot is scanned, which both verifies the bound (a lazily
// cancelled minimum may have left it stale-low — left uncorrected it would
// pin the epoch barrier's probe early forever, the livelock this loop
// guards against) and purges the cancelled records it finds. A slot proven
// exact that wins re-selection is the answer.
func (w *timerWheel) minPending(sim *Simulator) *event {
	// Run-queue head first: its tick is wtime, below every slotted tick, so
	// a pending head short-circuits the whole selection.
	for w.runIdx < len(w.runQ) {
		ev := w.runQ[w.runIdx]
		if ev.state&stateCancelled == 0 {
			return ev
		}
		w.runQ[w.runIdx] = nil
		w.runIdx++
		sim.release(ev)
	}
	const inf = int64(1<<63 - 1)
	exactLevel, exactSlot := -1, -1
	exactOverflow := false
	var exactEv *event
	for {
		bestAt := inf
		bestLevel, bestSlot := -1, -1
		if d := w.nextOcc(0, int(w.wtime&wheelMask)); d != 0 && d < wheelSlots {
			slot := int((w.wtime + int64(d)) & wheelMask)
			bestAt, bestLevel, bestSlot = w.slotMin[0][slot], 0, slot
		}
		for level := 1; level < wheelLevels; level++ {
			cur := int((w.wtime >> uint(level*wheelBits)) & wheelMask)
			if d := w.nextOcc(level, cur); d != 0 {
				slot := (cur + d) & wheelMask
				if m := w.slotMin[level][slot]; m < bestAt {
					bestAt, bestLevel, bestSlot = m, level, slot
				}
			}
		}
		if len(w.overflow) > 0 && w.overflowMin<<wheelShift < bestAt {
			if exactOverflow {
				return exactEv
			}
			exactEv = w.scanOverflow(sim)
			exactOverflow, exactLevel = true, -1
			continue
		}
		if bestLevel == -1 {
			return nil
		}
		if bestLevel == exactLevel && bestSlot == exactSlot {
			return exactEv
		}
		exactEv = w.scanSlot(sim, bestLevel, bestSlot)
		exactLevel, exactSlot, exactOverflow = bestLevel, bestSlot, false
	}
}

// scanSlot computes one slot's exact minimum pending event, swap-removing
// cancelled records (slot order is insertion order, rebuilt at drain time,
// so removal order is irrelevant), refreshing slotMin and clearing the
// occupancy bit if the slot empties.
func (w *timerWheel) scanSlot(sim *Simulator, level, slot int) *event {
	evs := w.slots[level][slot]
	var best *event
	for i := 0; i < len(evs); {
		ev := evs[i]
		if ev.state&stateCancelled != 0 {
			last := len(evs) - 1
			evs[i] = evs[last]
			evs[last] = nil
			evs = evs[:last]
			sim.release(ev)
			continue
		}
		if best == nil || cmpEvent(ev, best) < 0 {
			best = ev
		}
		i++
	}
	w.slots[level][slot] = evs
	if best == nil {
		w.occ[level][slot>>6] &^= 1 << (slot & 63)
	} else {
		w.slotMin[level][slot] = best.at
	}
	return best
}

// scanOverflow computes the overflow list's exact minimum pending event,
// purging cancelled records and tightening overflowMin.
func (w *timerWheel) scanOverflow(sim *Simulator) *event {
	var best *event
	for i := 0; i < len(w.overflow); {
		ev := w.overflow[i]
		if ev.state&stateCancelled != 0 {
			last := len(w.overflow) - 1
			w.overflow[i] = w.overflow[last]
			w.overflow[last] = nil
			w.overflow = w.overflow[:last]
			sim.release(ev)
			continue
		}
		if best == nil || cmpEvent(ev, best) < 0 {
			best = ev
		}
		i++
	}
	if best != nil {
		w.overflowMin = best.at >> wheelShift
	}
	return best
}
