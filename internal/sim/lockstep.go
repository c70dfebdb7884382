package sim

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Lockstep advances a set of simulators in conservative lockstep epochs: the
// parallel-discrete-event form of RunUntil. Each member simulator owns a
// disjoint partition of the modelled system (one shard's nodes and their
// local traffic), and anything one partition sends another is queued outside
// the simulators and injected at epoch boundaries by the Exchange hook.
//
// The correctness argument is the classic conservative-lookahead one
// (Chandy–Misra–Bryant), sharpened per member. Let next_i be member i's
// earliest pending event at a barrier (+inf if idle), m1 = min_i next_i, and
// W = Lookahead, the guaranteed minimum cross-member latency. During an
// epoch every cross effect member i emits lands at least W after the
// emitting event, i.e. at or after next_i + W. Clamping each member's
// potential-send horizon at one hop past the global minimum,
//
//	floor_i = min(next_i, m1 + W)
//
// lets member j run to
//
//	bound_j = min over i != j of floor_i, plus W
//
// without overrunning any arrival: everything i can send j lands at or
// after floor_i + W >= bound_j (arrival exactly at bound_j is injected at
// the next barrier with j's clock parked there, which RunUntil's inclusive
// semantics already define). The floor is what makes the widened window
// transitively sound — without it, the minimum member could race past a
// reply provoked from an idle member by its own send (send at m1 wakes i at
// m1+W, reply lands m1+2W, so no bound may exceed m1+2W). Concretely: the
// minimum member a gets bound_a = min(m2, m1+W) + W (m2 the second minimum)
// — up to a double-width window when the rest of the fabric is quiet — and
// every other member gets the classic m1 + W. With a single member there is
// no cross traffic at all and the bound is the deadline itself: one epoch
// per RunUntil, so a single member costs what a bare Simulator.RunUntil does.
//
// Within an epoch the member simulators are entirely independent and may
// run on separate goroutines; determinism is untouched because each
// simulator's event order is its own, the Exchange hook injects cross
// records in a fixed total order, and the epoch/bound schedule is a pure
// function of the probed event times. Epoch and idle-skip counts are
// likewise schedule-independent and exposed for the loop-stats columns.
//
// Lockstep itself is not safe for concurrent use: one goroutine drives
// RunUntil/RunFor, exactly like Simulator.Run.
type Lockstep struct {
	// Sims are the member simulators. Their clocks must agree when the
	// Lockstep is constructed (all fresh, or all previously advanced
	// together); every barrier re-aligns them to their epoch bounds.
	Sims []*Simulator
	// Lookahead is the minimum cross-simulator latency W. It must be > 0 and
	// a true lower bound on the delay of every cross record, or epochs would
	// overrun arrivals: take it from the fabric (simnet.Partition.Lookahead).
	Lookahead time.Duration
	// Exchange drains the cross queues into the member simulators. It runs
	// with every simulator paused at a common barrier, before each epoch and
	// once before the final clock alignment, so it may touch any simulator
	// freely. Optional.
	Exchange func()
	// Release, if set, is called after each barrier probe with the horizon
	// strictly below which no member can emit further observable output
	// (reports): every member's future activity is at or after its probed
	// next event. Collectors that must ingest output in global timestamp
	// order despite members' clocks diverging within an epoch hold records
	// back and feed them here. The final call, after the deadline
	// alignment, uses deadline+1ns so records timestamped exactly at the
	// deadline flush too. Optional.
	Release func(before time.Time)
	// Workers caps how many member simulators run concurrently within one
	// epoch (default GOMAXPROCS). Execution throttle only: results are
	// identical for any value, including 1.
	Workers int

	nexts  []int64 // per-sim earliest pending event, scratch
	bounds []int64 // per-sim epoch bound, scratch

	// The helpers that run members beside the driving goroutine in a
	// parallel epoch start at the first such epoch of a RunUntil and stop
	// when it returns, so an epoch only hands out member indices: cursor is
	// the next one. wake carries true to run an epoch and false to stop; a
	// helper reports an epoch's end on done.
	cursor  atomic.Int64 //lint:allow loopowned the driving goroutine and the helpers each claim the next member to run
	wake    chan bool
	done    chan struct{}
	helpers int

	epochs    uint64
	idleSkips uint64
}

// Now returns the common barrier time. Between Run calls every member clock
// agrees; the first member is as good as any.
func (l *Lockstep) Now() time.Time { return l.Sims[0].Now() }

// Epochs returns the cumulative number of epoch barriers executed. The
// count is a pure function of the simulated workload — independent of
// GOMAXPROCS and Workers — which is what makes it gateable in CI.
func (l *Lockstep) Epochs() uint64 { return l.epochs }

// IdleSkips returns how many of those epochs had at most one member with
// work in its window — the degenerate epochs the adaptive bound turns into
// cheap inline fast-forwards instead of full fan-outs.
func (l *Lockstep) IdleSkips() uint64 { return l.idleSkips }

// RunFor advances every member simulator by d in lockstep.
func (l *Lockstep) RunFor(d time.Duration) { l.RunUntil(l.Now().Add(d)) }

// RunUntil executes events with timestamps <= deadline across every member
// simulator, exchanging cross records at each epoch barrier, then aligns
// all clocks to the deadline.
func (l *Lockstep) RunUntil(deadline time.Time) {
	bound := deadline.UnixNano()
	lookahead := int64(l.Lookahead)
	if len(l.nexts) != len(l.Sims) {
		l.nexts = make([]int64, len(l.Sims))
		l.bounds = make([]int64, len(l.Sims))
	}
	for {
		if l.Exchange != nil {
			l.Exchange()
		}
		// Probe the earliest pending event across the members. Cross records
		// were just injected, so the wheels hold everything schedulable.
		const inf = 1<<63 - 1
		m1, m2 := int64(inf), int64(inf) // global and second minimum
		argmin := -1
		for i, s := range l.Sims {
			l.nexts[i] = inf
			if at, ok := s.NextAt(); ok {
				n := at.UnixNano()
				l.nexts[i] = n
				switch {
				case n < m1:
					m1, m2 = n, m1
					argmin = i
				case n < m2:
					m2 = n
				}
			}
		}
		if l.Release != nil && m1 != inf {
			// Everything any member still does is at or after its next event,
			// so output timestamped strictly before m1 is final.
			l.Release(time.Unix(0, m1))
		}
		if m1 > bound {
			break
		}
		// Per-member epoch bounds from the floors rule (see type comment):
		// the minimum member may run to min(m2, m1+W) + W, everyone else to
		// the classic m1 + W; all capped at the deadline.
		wide := int64(inf) // single member: no cross traffic can exist
		if len(l.Sims) > 1 {
			// Even with every other member idle (m2 = inf) the cap at m1+2W
			// stands: the minimum member's own sends can provoke replies
			// landing as early as two hops past m1.
			wide = m1 + 2*lookahead
			if m2 != inf && m2+lookahead < wide {
				wide = m2 + lookahead
			}
		}
		narrow := m1 + lookahead
		active := 0
		for i := range l.Sims {
			b := narrow
			if i == argmin {
				b = wide
			}
			if b > bound || b < 0 { // < 0: overflow past the int64 horizon
				b = bound
			}
			l.bounds[i] = b
			if l.nexts[i] <= b {
				active++
			}
		}
		l.epochs++
		if active <= 1 {
			l.idleSkips++
		}
		l.runEpoch(active)
	}
	for ; l.helpers > 0; l.helpers-- {
		l.wake <- false
	}
	// No runnable event at or before the deadline remains anywhere (and the
	// probe above ran after a final Exchange); align every clock and flush
	// any output parked at the deadline itself.
	for _, s := range l.Sims {
		s.RunUntil(deadline)
	}
	if l.Release != nil {
		l.Release(deadline.Add(1))
	}
}

// runEpoch runs every member with work in its window concurrently up to its
// bound and advances the idle members' clocks. Which goroutine runs which
// member never matters: members share no state inside an epoch.
func (l *Lockstep) runEpoch(active int) {
	for i := range l.Sims {
		if l.nexts[i] > l.bounds[i] {
			l.Sims[i].RunUntil(time.Unix(0, l.bounds[i])) // clock advance only
		}
	}
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > active {
		workers = active
	}
	if workers <= 1 {
		// One busy shard (the common sparse-epoch case) or a serial cap: run
		// inline, no goroutine or barrier cost.
		for i := range l.Sims {
			if l.nexts[i] <= l.bounds[i] {
				l.Sims[i].RunUntil(time.Unix(0, l.bounds[i]))
			}
		}
		return
	}
	if l.wake == nil {
		l.wake, l.done = make(chan bool), make(chan struct{})
	}
	for ; l.helpers < workers-1; l.helpers++ {
		go l.help()
	}
	l.cursor.Store(0)
	for w := 1; w < workers; w++ {
		l.wake <- true
	}
	l.runMembers()
	for w := 1; w < workers; w++ {
		<-l.done
	}
}

// help runs the members of each parallel epoch it is woken for, until it is
// told to stop.
func (l *Lockstep) help() {
	for <-l.wake {
		l.runMembers()
		l.done <- struct{}{}
	}
}

// runMembers claims members off the epoch's cursor until none is left and
// runs each with work in its window up to its bound.
func (l *Lockstep) runMembers() {
	for {
		i := int(l.cursor.Add(1)) - 1
		if i >= len(l.Sims) {
			return
		}
		if l.nexts[i] <= l.bounds[i] {
			l.Sims[i].RunUntil(time.Unix(0, l.bounds[i]))
		}
	}
}
