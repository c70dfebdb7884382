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

// Clock is what a component holds of the loop that owns it: the loop's
// simulator, called directly. What differs between a simulation and a
// deployment is who drives the simulator, not the timer semantics. Like
// everything a loop owns, a Clock is used only from its loop — from an event
// callback, or by the driver while the loop is not running — so Stop()==true
// always means the callback never runs.
type Clock = *Simulator

// ArgTimer is the cancellable handle to one generation of a pooled event
// record: a value struct, so storing it in a caller's record costs no
// allocation. The zero value is inert (Stop reports false).
type ArgTimer struct {
	ev  *event
	gen uint64
}

// Stop cancels the event; it reports true if the call prevented the callback
// from running. A handle whose record was dispatched, stopped or recycled
// observes a generation mismatch and reports false without touching the new
// occupant. Cancellation is eager: the record is unlinked from wherever it
// lives in the wheel and goes back to the freelist before Stop returns, so a
// stopped timer costs the loop nothing further.
func (h ArgTimer) Stop() bool {
	ev := h.ev
	if ev == nil || ev.state>>stateGenShift != h.gen {
		return false
	}
	s := ev.sim
	s.wheel.unlink(ev)
	s.live--
	s.release(ev)
	return true
}

// Simulator is a deterministic discrete-event scheduler.
// Events scheduled for the same instant run in scheduling order. It has no
// lock: a simulator, what is scheduled on it and the driver that runs it are
// one dispatch context (DESIGN.md, "Dispatch contexts"), and only its own
// event callbacks, or the driver while no event is running, touch it.
//
// The event loop is the inner loop of every live-scenario shard, so its hot
// path is tuned accordingly: event records are recycled through a freelist
// with generation-checked timer handles instead of allocating per schedule,
// and a stopped record is back on that freelist before Stop returns.
//
// The pending queue is a hierarchical timer wheel (Varghese–Lauck) of
// intrusive lists, not a binary heap: schedule and cancel are O(1) regardless
// of how many far-future timers are parked (per-node refresh loops, hold
// timers), where a heap charges every near-horizon RPC timeout and delivery
// event O(log n) against the whole standing population. Events that share a
// wheel tick are sorted by (at, seq) once when their slot is drained, so
// dispatch order is the exact (at, seq) total order the heap produced.
type Simulator struct {
	now   int64 // current time, Unix nanoseconds
	live  int   // queued events: every one of them is in the wheel and will run
	seq   uint64
	wheel timerWheel

	// NextAt cache: the earliest pending event as of the last full scan.
	// Self-invalidating — dispatch and cancellation both release the record,
	// which bumps its generation, so cachedAt() detects staleness without
	// any bookkeeping on those paths; schedule keeps the cache exact by
	// min-updating it. This is what keeps the Lockstep barrier's per-epoch
	// probe O(1) on idle shards.
	cachedEv  *event
	cachedGen uint64

	events freelist.List[event]
}

// maxFreeEvents bounds a simulator's recycled event records: about twice
// what a live network's drive takes from the list at once (a default
// 200-node key-share point's missions peak at about 1,300 records out), so
// a warm loop schedules without allocating. A boot burst goes far past it
// (11,982 records on a 2000-node loop) and sheds its surplus to the
// collector once it drains, instead of keeping the boot's working set for
// the rest of the run.
const maxFreeEvents = 2048

// NewSimulator returns a simulator starting at the Unix epoch plus one hour
// (so negative offsets in tests stay valid).
func NewSimulator() *Simulator {
	s := &Simulator{events: freelist.List[event]{Max: maxFreeEvents}}
	s.now = time.Unix(0, 0).Add(time.Hour).UnixNano()
	s.wheel.wtime = s.now >> wheelShift
	return s
}

// EventMisses reports how many event records the simulator has allocated
// because its list was empty (freelist.List.Misses).
func (s *Simulator) EventMisses() uint64 { return s.events.Misses() }

// Now returns the current time.
func (s *Simulator) Now() time.Time {
	return time.Unix(0, s.now)
}

// AfterFunc schedules fn at now+d. Non-positive d runs fn at the current
// instant (still through the queue, preserving deterministic order).
func (s *Simulator) AfterFunc(d time.Duration, fn func()) ArgTimer {
	return s.schedule(d, fn, nil, nil)
}

// Schedule arms fn at now+d with no cancellation handle: the same queue and
// ordering as AfterFunc.
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
// the cache is stale (its event dispatched or cancelled — either way released
// under a new generation).
func (s *Simulator) cachedAt() int64 {
	if s.cachedEv != nil && s.cachedEv.state>>stateGenShift == s.cachedGen {
		return s.cachedEv.at
	}
	return 1<<63 - 1
}

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed. An empty queue is
// answered here, not by the wheel: a search that finds nothing rests the
// wheel's time at its bound, and resting it at the end of time would file
// every later event in the sorted run queue.
func (s *Simulator) Step() bool {
	return s.live > 0 && s.step(1<<63-1)
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

// Pending returns the number of queued events in O(1): the counter moves on
// schedule, cancel and dispatch, and a cancelled event leaves the wheel with
// its Stop.
func (s *Simulator) Pending() int {
	return s.live
}

// NextAt returns the timestamp of the earliest pending event; ok is false
// when nothing is pending. It is the lookahead probe of the Lockstep epoch
// barrier: the barrier sizes each epoch from the earliest event across all
// member simulators. The result is cached on the event itself (see
// cachedAt), so back-to-back barrier probes of an idle shard cost one load.
func (s *Simulator) NextAt() (at time.Time, ok bool) {
	if t := s.cachedAt(); t != 1<<63-1 {
		return time.Unix(0, t), true
	}
	ev := s.wheel.minPending()
	if ev == nil {
		s.cachedEv = nil
		return time.Time{}, false
	}
	s.cachedEv, s.cachedGen = ev, ev.state>>stateGenShift
	return time.Unix(0, ev.at), true
}

// release returns a finished (run or cancelled) event record, already out of
// the wheel, to the freelist, bumping its generation so any still-held timer
// handle turns inert.
func (s *Simulator) release(ev *event) {
	gen := ev.state >> stateGenShift
	ev.fn = nil // do not retain the callback or its argument while pooled
	ev.argFn = nil
	ev.arg = nil
	ev.state = (gen + 1) << stateGenShift // next life
	s.events.Put(ev)
}

// Event state is a packed word: the low bits are the record's residence (the
// list of the wheel it is linked into, which is what lets Stop unlink it
// without a search), the rest is a generation counter bumped each time the
// record is released, so one compare tells a handle to a pending event from
// a stale or spent one. Packed, not two fields, to keep the record in the
// 80-byte size class.
const (
	stateGenShift = 16
	resMask       = 1<<stateGenShift - 1

	// Residences: a slot is level<<wheelBits | slot, below resOverflow.
	resOverflow = wheelLevels * wheelSlots
	resRunQ     = resOverflow + 1
)

// event is a pooled scheduled callback record. Exactly one of fn and argFn
// is set: argFn events carry their argument in the record, so hot callers
// with a package-level argFn schedule without allocating a closure. While it
// waits in a slot or the overflow the record is a node of that list (next,
// prev); in the run queue and on the freelist both links are nil.
type event struct {
	at         int64 // Unix nanoseconds
	seq        uint64
	fn         func()
	argFn      func(any)
	arg        any
	sim        *Simulator
	state      uint64
	next, prev *event
}

// setRes records which list of the wheel now holds ev.
func (ev *event) setRes(res uint64) {
	ev.state = ev.state&^resMask | res
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

// popRunnable pops the earliest pending event with at <= bound.
func (s *Simulator) popRunnable(bound int64) *event {
	w := &s.wheel
	for {
		// Fast path: the current-tick run queue, already in (at, seq) order.
		if w.runIdx < len(w.runQ) {
			ev := w.runQ[w.runIdx]
			if ev.at > bound {
				return nil
			}
			w.runQ[w.runIdx] = nil
			w.runIdx++
			s.live--
			return ev
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
// the wheel's current time. Every queued event is in exactly one of the run
// queue, a slot list and the overflow list, and its state word says which
// (the residence), so unlink takes it out without looking for it; a slot's
// occupancy bit is set exactly while its list is non-empty. Order inside a
// list means nothing: the run queue is sorted when a slot drains into it.
type timerWheel struct {
	wtime  int64 // current wheel time, in ticks
	runQ   []*event
	runIdx int

	slots [wheelLevels][wheelSlots]*event // list heads
	occ   [wheelLevels][wheelSlots / 64]uint64
	// slotMin caches a lower bound on each occupied slot's earliest pending
	// timestamp: exact after inserts (O(1) min-update), stale-low only after
	// the slot's minimum was unlinked while others stayed, meaningless while
	// the occupancy bit is clear. minPending consults these instead of
	// walking lists, verifying only the winning slot — without this, every
	// barrier probe would rescan the thousands of parked far-horizon timers
	// in the first level-2/3 slots.
	slotMin [wheelLevels][wheelSlots]int64

	overflow *event // list head
	// overflowMin is a lower bound on the overflow entries' ticks (exact on
	// insert, stale-early after its minimum was unlinked), so advance knows
	// when a re-bin could matter without scanning.
	overflowMin int64
}

// push links ev at the head of a list and records the list as its residence.
func push(head **event, ev *event, res uint64) {
	ev.setRes(res)
	ev.prev, ev.next = nil, *head
	if *head != nil {
		(*head).prev = ev
	}
	*head = ev
}

// unlink takes a queued event out of the wheel, from wherever it lives: a
// slot or the overflow in O(1) by its own links, the run queue — one tick's
// events — by binary search on (at, seq).
func (w *timerWheel) unlink(ev *event) {
	res := ev.state & resMask
	if res == resRunQ {
		i, _ := slices.BinarySearchFunc(w.runQ[w.runIdx:], ev, cmpEvent)
		i += w.runIdx
		w.runQ = slices.Delete(w.runQ, i, i+1)
		return
	}
	head := &w.overflow
	if res != resOverflow {
		head = &w.slots[res>>wheelBits][res&wheelMask]
	}
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		*head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if *head == nil && res != resOverflow {
		slot := res & wheelMask
		w.occ[res>>wheelBits][slot>>6] &^= 1 << (slot & 63)
	}
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
		if w.overflow == nil || tick < w.overflowMin {
			w.overflowMin = tick
		}
		push(&w.overflow, ev, resOverflow)
	}
}

func (w *timerWheel) put(level, slot int, ev *event) {
	if w.occ[level][slot>>6]&(1<<(slot&63)) == 0 {
		w.occ[level][slot>>6] |= 1 << (slot & 63)
		w.slotMin[level][slot] = ev.at
	} else if ev.at < w.slotMin[level][slot] {
		w.slotMin[level][slot] = ev.at
	}
	push(&w.slots[level][slot], ev, uint64(level<<wheelBits|slot))
}

// insertRun places ev into the live run queue at its (at, seq) position
// among the not-yet-consumed entries — the mid-drain schedule path, so an
// event scheduled at the current instant from a running callback dispatches
// in the same pass, in order, exactly like the heap did.
func (w *timerWheel) insertRun(ev *event) {
	ev.setRes(resRunQ)
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
		if w.overflow != nil {
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
		if w.overflow != nil && w.overflowMin-(1<<(wheelLevels*wheelBits)-1) <= w.wtime {
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

// drainSlot empties one slot: level 0 onto the run queue (all entries share
// the current tick; advance sorts it), higher levels re-binned by their
// now-smaller distance.
func (w *timerWheel) drainSlot(level, slot int) {
	ev := w.slots[level][slot]
	if ev == nil {
		return
	}
	w.slots[level][slot] = nil
	w.occ[level][slot>>6] &^= 1 << (slot & 63)
	if level > 0 {
		w.rebin(ev)
		return
	}
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		ev.setRes(resRunQ)
		w.runQ = append(w.runQ, ev)
		ev = next
	}
}

// rebin files every event of a detached list anew, by its distance from the
// wheel's current time.
func (w *timerWheel) rebin(ev *event) {
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.insert(ev)
		ev = next
	}
}

// rebinOverflow re-files every overflow entry; those still beyond the top
// horizon return to the overflow with an exact new minimum.
func (w *timerWheel) rebinOverflow() {
	// Detach the list before re-inserting: entries still beyond the horizon
	// are pushed back onto w.overflow, which must not be the list being walked.
	evs := w.overflow
	w.overflow = nil
	w.rebin(evs)
}

// minPending returns the earliest pending event without advancing the wheel
// — the pure peek behind NextAt. Candidates must be compared across levels:
// after the wheel time drifts within a block, an un-cascaded higher-level
// slot's window can overlap level 0's, so the earliest occupied slot of
// every level is consulted (within one level the earliest-cascading slot
// provably holds that level's minimum — slots' tick windows are disjoint
// blocks in cascade order). Selection runs over the cached slotMin bounds;
// only the winning slot's list is walked, which verifies the bound (a slot
// whose minimum was unlinked may have left it stale-low — left uncorrected it
// would pin the epoch barrier's probe early forever, the livelock this loop
// guards against) and makes it exact. A slot proven exact that wins
// re-selection is the answer.
func (w *timerWheel) minPending() *event {
	// Run-queue head first: its tick is wtime, below every slotted tick, so
	// it short-circuits the whole selection.
	if w.runIdx < len(w.runQ) {
		return w.runQ[w.runIdx]
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
		if w.overflow != nil && w.overflowMin<<wheelShift < bestAt {
			if exactOverflow {
				return exactEv
			}
			exactEv = listMin(w.overflow)
			w.overflowMin = exactEv.at >> wheelShift
			exactOverflow, exactLevel = true, -1
			continue
		}
		if bestLevel == -1 {
			return nil
		}
		if bestLevel == exactLevel && bestSlot == exactSlot {
			return exactEv
		}
		exactEv = listMin(w.slots[bestLevel][bestSlot])
		w.slotMin[bestLevel][bestSlot] = exactEv.at
		exactLevel, exactSlot, exactOverflow = bestLevel, bestSlot, false
	}
}

// listMin walks a non-empty list for its earliest event.
func listMin(head *event) *event {
	best := head
	for ev := head.next; ev != nil; ev = ev.next {
		if cmpEvent(ev, best) < 0 {
			best = ev
		}
	}
	return best
}
