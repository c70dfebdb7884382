package sim

import (
	"slices"
	"testing"
	"time"

	"selfemerge/internal/stats"
)

// This file pins the timer wheel to the binary heap it replaced: the heap
// implementation below is the historical eventHeap retained verbatim (over a
// plain oracle record instead of the pooled *event) as the ordering oracle.
// The property test drives a live Simulator through randomized
// schedule/cancel/run/chain interleavings and requires the wheel's dispatch
// sequence, NextAt probe and Pending counter to agree with the heap's
// prediction byte for byte.

// oracleEvent is the oracle's view of one scheduled callback.
type oracleEvent struct {
	at  int64
	seq uint64
	id  uint64

	cancelled bool
	fired     bool

	// chainDelay >= 0 arms a child event (childID) scheduled from inside the
	// callback — the mid-drain insert path of the wheel.
	chainDelay int64
	childID    uint64
	// sibling, when set, is stopped from inside the callback — the mid-drain
	// unlink path of the wheel.
	sibling *oracleEvent
}

// oracleHeap is the pre-wheel eventHeap, retained as the test oracle.
type oracleHeap struct {
	items []*oracleEvent
}

func (h *oracleHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.at == b.at {
		return a.seq < b.seq
	}
	return a.at < b.at
}

func (h *oracleHeap) peek() *oracleEvent {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *oracleHeap) push(ev *oracleEvent) {
	h.items = append(h.items, ev)
	h.up(len(h.items) - 1)
}

func (h *oracleHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *oracleHeap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

func (h *oracleHeap) pop() *oracleEvent {
	if len(h.items) == 0 {
		return nil
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// minPending returns the earliest live entry without popping, discarding
// cancelled and fired records from the top — the oracle's NextAt.
func (h *oracleHeap) minPending() *oracleEvent {
	for {
		top := h.peek()
		if top == nil {
			return nil
		}
		if top.cancelled || top.fired {
			h.pop()
			continue
		}
		return top
	}
}

// TestWheelMatchesHeapOracle is the determinism property test for the wheel:
// randomized interleavings of schedules across every level of the wheel
// (same-tick, level 0 through level 3, and the overflow list), cancellations
// (live, already-fired and double-stops, from the driver and from inside a
// callback), mid-callback chained schedules, and run bounds landing on
// arbitrary ticks must dispatch in exactly the (at, seq) order the retained
// heap predicts, with NextAt and Pending agreeing at every quiescent point.
// The test tallies where each Stop found its record, and fails unless the
// driver's Stops unlinked from every residence — the run queue, each of the
// four levels and the overflow list — and tried every kind of spent handle,
// and the in-callback Stops unlinked from the run queue mid-drain and from
// the slots.
func TestWheelMatchesHeapOracle(t *testing.T) {
	const (
		hitRunQ = wheelLevels + iota // hit[0..wheelLevels) are the slot levels
		hitOverflow
		hitFired    // spent handles: the event ran,
		hitStopped  // was stopped before,
		hitRecycled // or its record is in a later life already
		hitKinds
	)
	var hits, callbackHits [hitKinds]int
	// Delay ranges chosen so inserts land in each wheel level: a tick is
	// 2^20ns, level 0 covers ~268ms, then ~68.7s, ~4.9h, ~52 days, and
	// beyond that the overflow list.
	delayRanges := []int64{
		int64(2 * time.Millisecond),
		int64(300 * time.Millisecond),
		int64(100 * time.Second),
		int64(11 * time.Hour),
		int64(100 * 24 * time.Hour),
	}
	for _, seed := range []uint64{1, 7, 29, 4242} {
		rng := stats.NewRNG(seed)
		s := NewSimulator()
		oracle := &oracleHeap{}

		var got, want []uint64
		var gotSib, wantSib []bool // what each in-callback sibling Stop reported
		var nextID, seq uint64
		var live []*oracleEvent // every armed record, for cancel targeting
		stops := make(map[uint64]ArgTimer)
		ran := make(map[uint64]bool)

		// stop stops id's handle, tallying into tally where the call found
		// the record.
		stop := func(id uint64, tally *[hitKinds]int) bool {
			h := stops[id]
			switch res := h.ev.state & resMask; {
			case h.ev.state>>stateGenShift > h.gen+1:
				tally[hitRecycled]++
			case ran[id]:
				tally[hitFired]++
			case h.ev.state>>stateGenShift == h.gen+1:
				tally[hitStopped]++
			case res == resRunQ:
				tally[hitRunQ]++
			case res == resOverflow:
				tally[hitOverflow]++
			default:
				tally[res>>wheelBits]++
			}
			return h.Stop()
		}

		// pick draws a cancel target: half the time any record ever armed
		// (mostly spent by then), otherwise one of the latest few (mostly
		// still waiting, wherever their delay put them).
		pick := func() *oracleEvent {
			if len(live) == 0 {
				return nil
			}
			if recent := min(len(live), 16); rng.Intn(2) == 0 {
				return live[len(live)-1-rng.Intn(recent)]
			}
			return live[rng.Intn(len(live))]
		}

		// armCancellable arms one cancellable event, in closure or in arg
		// form, on both the simulator and the oracle, mirroring the
		// simulator's internal seq assignment (single goroutine, so arming
		// order is assignment order).
		armCancellable := func(d int64) *oracleEvent {
			id := nextID
			nextID++
			oe := &oracleEvent{at: s.Now().UnixNano() + max(d, 0), seq: seq, id: id, chainDelay: -1}
			seq++
			if rng.Intn(2) == 0 {
				stops[id] = s.AfterFunc(time.Duration(d), func() { got, ran[id] = append(got, id), true })
			} else {
				stops[id] = s.AfterFuncArg(time.Duration(d), func(a any) { got, ran[a.(uint64)] = append(got, a.(uint64)), true }, id)
			}
			oracle.push(oe)
			live = append(live, oe)
			return oe
		}

		// schedule arms one event of a random kind.
		schedule := func() {
			d := int64(rng.Uint64n(uint64(delayRanges[rng.Intn(len(delayRanges))])))
			if rng.Intn(20) == 0 {
				d = -d // negative delays clamp to "now"
			}
			kind := rng.Intn(4)
			if kind == 0 {
				armCancellable(d)
				return
			}
			var sib *oracleEvent
			if kind == 3 {
				// A sibling for the callback below to stop: an older record, or
				// a fresh one due within a few ticks of the stopper — before it,
				// in its tick's run queue behind it, or in a slot just ahead.
				if sib = pick(); sib == nil || stops[sib.id] == (ArgTimer{}) || rng.Intn(2) == 0 {
					sib = armCancellable(max(d, 0) + int64(rng.Uint64n(uint64(3*time.Millisecond))) - int64(time.Millisecond)/4)
				}
			}
			id := nextID
			nextID++
			oe := &oracleEvent{at: s.Now().UnixNano() + max(d, 0), seq: seq, id: id, chainDelay: -1, sibling: sib}
			seq++
			switch kind {
			case 1: // fire-and-forget
				s.Schedule(time.Duration(d), func() { got = append(got, id) })
			case 2: // chained: the callback schedules a child mid-drain
				child := nextID
				nextID++
				cd := int64(rng.Uint64n(uint64(4 * time.Millisecond)))
				if rng.Intn(3) == 0 {
					cd = 0 // same-instant child, dispatched in the same pass
				}
				oe.chainDelay, oe.childID = cd, child
				s.Schedule(time.Duration(d), func() {
					got = append(got, id)
					s.Schedule(time.Duration(cd), func() { got = append(got, child) })
				})
			case 3: // the callback stops the sibling, wherever that one is by then
				s.Schedule(time.Duration(d), func() {
					got = append(got, id)
					gotSib = append(gotSib, stop(sib.id, &callbackHits))
				})
			}
			oracle.push(oe)
			live = append(live, oe)
		}

		// expect pops the oracle up to bound, mirroring chained schedules
		// (their seq is assigned at parent dispatch time).
		expect := func(bound int64, limit int) {
			for limit != 0 {
				top := oracle.minPending()
				if top == nil || top.at > bound {
					return
				}
				oracle.pop()
				top.fired = true
				want = append(want, top.id)
				limit--
				if top.chainDelay >= 0 {
					child := &oracleEvent{at: top.at + top.chainDelay, seq: seq, id: top.childID, chainDelay: -1}
					seq++
					oracle.push(child)
					live = append(live, child)
				}
				if sib := top.sibling; sib != nil {
					stopped := !sib.cancelled && !sib.fired
					wantSib = append(wantSib, stopped)
					sib.cancelled = sib.cancelled || stopped
				}
			}
		}

		check := func(round int) {
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: dispatched %d events, oracle predicts %d", seed, round, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d round %d: dispatch[%d] = id %d, oracle predicts id %d", seed, round, i, got[i], want[i])
				}
			}
			if !slices.Equal(gotSib, wantSib) {
				t.Fatalf("seed %d round %d: in-callback Stops reported %v, oracle predicts %v", seed, round, gotSib, wantSib)
			}
			at, ok := s.NextAt()
			top := oracle.minPending()
			if ok != (top != nil) {
				t.Fatalf("seed %d round %d: NextAt ok=%v, oracle pending=%v", seed, round, ok, top != nil)
			}
			if ok && at.UnixNano() != top.at {
				t.Fatalf("seed %d round %d: NextAt=%d, oracle min=%d", seed, round, at.UnixNano(), top.at)
			}
			pending := 0
			for _, oe := range live {
				if !oe.cancelled && !oe.fired {
					pending++
				}
			}
			if s.Pending() != pending {
				t.Fatalf("seed %d round %d: Pending()=%d, oracle count=%d", seed, round, s.Pending(), pending)
			}
		}

		for round := 0; round < 2500; round++ {
			switch op := rng.Intn(100); {
			case op < 45:
				schedule()
			case op < 65: // cancel a random armed record (possibly stale)
				oe := pick()
				if rng.Intn(4) == 0 {
					// A fresh one in or next to the current tick: the run queue
					// while nothing runs.
					oe = armCancellable(int64(rng.Uint64n(3 << (wheelShift - 1))))
				}
				if oe == nil || stops[oe.id] == (ArgTimer{}) {
					continue
				}
				stopped := stop(oe.id, &hits)
				if wantStop := !oe.cancelled && !oe.fired; stopped != wantStop {
					t.Fatalf("seed %d round %d: Stop(id %d)=%v, oracle expects %v", seed, round, oe.id, stopped, wantStop)
				}
				if stopped {
					oe.cancelled = true
				}
			case op < 90: // run to a randomized bound
				d := int64(rng.Uint64n(uint64(delayRanges[rng.Intn(len(delayRanges))])))
				bound := s.Now().UnixNano() + d
				expect(bound, -1)
				s.RunUntil(time.Unix(0, bound))
				if now := s.Now().UnixNano(); now != bound {
					t.Fatalf("seed %d round %d: clock at %d after RunUntil(%d)", seed, round, now, bound)
				}
			default: // single step
				top := oracle.minPending()
				expect(1<<63-1, 1)
				if stepped := s.Step(); stepped != (top != nil) {
					t.Fatalf("seed %d round %d: Step()=%v, oracle pending=%v", seed, round, stepped, top != nil)
				}
			}
			check(round)
		}
		// Drain everything, including the far-overflow tail.
		expect(1<<63-1, -1)
		s.Run()
		check(-1)
	}
	for kind, n := range hits {
		if n == 0 {
			t.Errorf("no driver Stop found its record in residence %d (levels, run queue, overflow, fired, stopped, recycled: %v)", kind, hits)
		}
	}
	if callbackHits[hitRunQ] == 0 || callbackHits[0]+callbackHits[1] == 0 {
		t.Errorf("in-callback Stops never unlinked from the run queue or from a slot: %v", callbackHits)
	}
}

// TestStopUnlinks: a stopped timer is out of the wheel and back on the
// freelist when Stop returns. However many timers a run arms and stops, the
// wheel ends empty — every list head and occupancy word zero — the freelist
// holds what was armed at once, not what was armed in total, a stopped
// minimum does not pin NextAt, and the arm/stop cycle allocates nothing.
func TestStopUnlinks(t *testing.T) {
	s := NewSimulator()
	// One delay per residence: the current tick, each level, the overflow.
	delays := []time.Duration{
		0,
		1 << (wheelShift + 2),
		1 << (wheelShift + wheelBits + 2),
		1 << (wheelShift + 2*wheelBits + 2),
		1 << (wheelShift + 3*wheelBits + 2),
		1 << (wheelShift + 4*wheelBits + 2),
	}
	fired, stopped := 0, 0
	count := func(any) { fired++ }
	// A window of atOnce timers armed at a time, replaced in random order, so
	// the ten or so that share a list are unlinked from its head, tail and
	// middle.
	const cycles, atOnce = 5000, 64
	rng := stats.NewRNG(3)
	var armed [atOnce]ArgTimer
	for i := 0; i < cycles; i++ {
		k := rng.Intn(atOnce)
		if armed[k].Stop() {
			stopped++
		}
		armed[k] = s.AfterFuncArg(delays[i%len(delays)]+time.Duration(i%7), count, nil)
		if i%97 == 96 {
			// Drift within and across ticks; only delay-0 timers can fire.
			s.RunFor(time.Millisecond / 4)
		}
	}
	for _, h := range armed {
		if h.Stop() {
			stopped++
		}
	}
	if stopped+fired != cycles || fired > atOnce*(cycles/97) {
		t.Fatalf("of %d timers %d were stopped and %d fired", cycles, stopped, fired)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after every timer was stopped", s.Pending())
	}
	w := &s.wheel
	for level := range w.slots {
		for slot, head := range w.slots[level] {
			if head != nil {
				t.Fatalf("slot (%d, %d) still heads a list", level, slot)
			}
		}
		for i, word := range w.occ[level] {
			if word != 0 {
				t.Fatalf("occupancy word (%d, %d) = %#x on an empty wheel", level, i, word)
			}
		}
	}
	if w.overflow != nil || w.runIdx != len(w.runQ) {
		t.Fatalf("overflow %v, run queue %d of %d consumed on an empty wheel", w.overflow, w.runIdx, len(w.runQ))
	}
	if _, ok := s.NextAt(); ok {
		t.Fatal("NextAt reports an event on an empty wheel")
	}
	if n := s.events.Len(); n > atOnce {
		t.Fatalf("freelist holds %d records after %d arm/stop cycles of %d at once: stopped records are not being reused", n, cycles, atOnce)
	}
	if s.Run(); stopped+fired != cycles {
		t.Fatalf("%d stopped timers fired", stopped+fired-cycles)
	}

	// Stopping the minimum of a slot leaves its cached bound stale-low; the
	// probe must see through it to the next event — here in another level's
	// slot, whose window overlaps once the wheel has drifted inside a block,
	// and which lies between the stale bound and the slot's true minimum.
	base := s.Now()
	first := s.AfterFuncArg(300*time.Millisecond, count, nil) // level 1
	s.AfterFuncArg(330*time.Millisecond, count, nil)          // same slot
	s.RunFor(100 * time.Millisecond)
	s.AfterFuncArg(215*time.Millisecond, count, nil) // level 0, due at +315ms
	if at, _ := s.NextAt(); !at.Equal(base.Add(300 * time.Millisecond)) {
		t.Fatalf("NextAt = +%v, want +300ms", at.Sub(base))
	}
	first.Stop()
	if at, ok := s.NextAt(); !ok || !at.Equal(base.Add(315*time.Millisecond)) {
		t.Fatalf("NextAt after stopping the minimum = +%v, %v; want +315ms", at.Sub(base), ok)
	}
	// The record just stopped is the next one armed: still in cache.
	if again := s.AfterFuncArg(time.Second, count, nil); again.ev != first.ev || !again.Stop() || first.Stop() {
		t.Fatal("the record of a stopped timer was not the next one armed, or its spent handle still worked")
	}
	s.Run()

	if allocs := testing.AllocsPerRun(1000, func() {
		h := s.AfterFuncArg(500*time.Millisecond, count, nil)
		s.RunFor(10 * time.Millisecond)
		h.Stop()
	}); allocs != 0 {
		t.Fatalf("an arm/advance/stop cycle allocates %.1f times on a warmed simulator, want 0", allocs)
	}
}

// BenchmarkTimerChurn is the RPC shape: arm a 500 ms timeout, advance 10 ms,
// stop it. CI gates its allocs/op at 0 (BENCH_scenario.json).
func BenchmarkTimerChurn(b *testing.B) {
	s := NewSimulator()
	fire := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.AfterFuncArg(500*time.Millisecond, fire, nil)
		s.RunFor(10 * time.Millisecond)
		h.Stop()
	}
}

// TestWheelCascadeBoundaries pins the cascade edges directly: events placed
// exactly on level-block boundaries (multiples of 2^28, 2^36, 2^44 ns from
// the epoch-aligned wheel time) and one past the 52-day overflow horizon
// must fire in timestamp order with the clock advancing through multi-level
// cascades in one RunUntil.
func TestWheelCascadeBoundaries(t *testing.T) {
	s := NewSimulator()
	base := s.Now()
	var got []int
	delays := []time.Duration{
		0,
		1 << wheelShift,                       // one tick
		(1 << (wheelShift + wheelBits)) - 1,   // last tick of level 0's window
		1 << (wheelShift + wheelBits),         // first tick of level 1's window
		1 << (wheelShift + 2*wheelBits),       // level 2 boundary
		1 << (wheelShift + 3*wheelBits),       // level 3 boundary
		(1 << (wheelShift + 4*wheelBits)) * 2, // beyond the horizon: overflow
	}
	for i, d := range delays {
		i := i
		s.Schedule(d, func() { got = append(got, i) })
	}
	if at, ok := s.NextAt(); !ok || !at.Equal(base) {
		t.Fatalf("NextAt = %v, %v; want %v", at, ok, base)
	}
	s.RunUntil(base.Add(delays[len(delays)-1]))
	if len(got) != len(delays) {
		t.Fatalf("dispatched %d of %d events", len(got), len(delays))
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("dispatch order %v not ascending", got)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain", s.Pending())
	}
}
