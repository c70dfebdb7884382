package sim

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestLockstepAlignsClocks(t *testing.T) {
	sims := []*Simulator{NewSimulator(), NewSimulator(), NewSimulator()}
	l := &Lockstep{Sims: sims, Lookahead: time.Millisecond}
	deadline := l.Now().Add(time.Second)
	l.RunUntil(deadline)
	for i, s := range sims {
		if !s.Now().Equal(deadline) {
			t.Errorf("sim %d clock %v, want %v", i, s.Now(), deadline)
		}
	}
}

func TestLockstepRunsLocalEvents(t *testing.T) {
	sims := []*Simulator{NewSimulator(), NewSimulator()}
	l := &Lockstep{Sims: sims, Lookahead: time.Millisecond}

	// Both sims hold events at the same instants, so they are active in the
	// same epochs and may run on concurrent workers: guard the shared slice.
	var mu sync.Mutex
	var ran []string
	for i, s := range sims {
		i := i
		for _, d := range []time.Duration{
			time.Millisecond, 500 * time.Millisecond, time.Second, // the last lands exactly on the deadline
		} {
			d := d
			s.AfterFunc(d, func() {
				mu.Lock()
				ran = append(ran, fmt.Sprintf("%d@%v", i, d))
				mu.Unlock()
			})
		}
		s.AfterFunc(time.Second+time.Nanosecond, func() { t.Errorf("sim %d ran an event past the deadline", i) })
	}
	l.RunFor(time.Second)
	if len(ran) != 6 {
		t.Fatalf("ran %d events (%v), want 6", len(ran), ran)
	}
}

// TestLockstepExchange models the partition fabric by hand: each simulator
// hosts one node; every event sends a record to the other simulator with
// delivery time now+lookahead, and the Exchange hook drains the queue into
// the destination heaps. The hop trace must be identical for any worker
// count, and every hop must honour the lookahead lower bound.
func TestLockstepExchange(t *testing.T) {
	const lookahead = time.Millisecond
	type hop struct {
		sim int
		at  time.Time
	}

	run := func(workers int) []hop {
		sims := []*Simulator{NewSimulator(), NewSimulator()}
		var mu sync.Mutex // hops on distinct sims may interleave across epochs
		var trace []hop
		type rec struct {
			at  time.Time
			dst int
		}
		var queue []rec
		var bounce func(dst int)
		bounce = func(dst int) {
			mu.Lock()
			trace = append(trace, hop{sim: dst, at: sims[dst].Now()})
			mu.Unlock()
			queue = append(queue, rec{at: sims[dst].Now().Add(lookahead), dst: 1 - dst})
		}
		l := &Lockstep{
			Sims:      sims,
			Lookahead: lookahead,
			Workers:   workers,
			Exchange: func() {
				for _, r := range queue {
					r := r
					sims[r.dst].AfterFunc(r.at.Sub(sims[r.dst].Now()), func() { bounce(r.dst) })
				}
				queue = queue[:0]
			},
		}
		sims[0].AfterFunc(lookahead, func() { bounce(0) })
		l.RunFor(20 * time.Millisecond)
		return trace
	}

	// The queue append in bounce is only safe because a ping-pong has exactly
	// one active simulator per epoch; the real fabric uses per-shard queues.
	base := run(1)
	if len(base) != 20 {
		t.Fatalf("ran %d hops, want 20", len(base))
	}
	start := base[0].at
	for i, h := range base {
		if h.sim != i%2 {
			t.Errorf("hop %d on sim %d, want %d", i, h.sim, i%2)
		}
		if want := start.Add(time.Duration(i) * lookahead); !h.at.Equal(want) {
			t.Errorf("hop %d at %v, want %v (lookahead lower bound)", i, h.at, want)
		}
	}
	for _, workers := range []int{2, 4} {
		got := run(workers)
		if len(got) != len(base) {
			t.Fatalf("workers=%d ran %d hops, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("workers=%d hop %d = %+v, want %+v", workers, i, got[i], base[i])
			}
		}
	}
}

// TestLockstepDeadlineExclusive pins the boundary semantics: an event exactly
// at the deadline runs (matching Simulator.RunUntil), one past it does not.
func TestLockstepDeadlineExclusive(t *testing.T) {
	s := NewSimulator()
	l := &Lockstep{Sims: []*Simulator{s}, Lookahead: time.Millisecond}
	var atDeadline, past bool
	s.AfterFunc(time.Second, func() { atDeadline = true })
	s.AfterFunc(time.Second+time.Nanosecond, func() { past = true })
	l.RunFor(time.Second)
	if !atDeadline {
		t.Error("event at the deadline did not run")
	}
	if past {
		t.Error("event past the deadline ran")
	}
	l.RunFor(time.Second)
	if !past {
		t.Error("event did not run after the deadline advanced past it")
	}
}

// ticker re-arms itself every millisecond on its simulator.
type ticker struct {
	sim   *Simulator
	ticks int
}

func tick(v any) {
	tk := v.(*ticker)
	tk.ticks++
	tk.sim.ScheduleArg(time.Millisecond, tick, tk)
}

// TestParallelEpochsAllocateNothing: with both members busy in every epoch
// and two workers, a RunUntil over hundreds of parallel epochs allocates no
// more than one over a few. Its helpers live for the RunUntil, and an
// epoch only hands out member indices.
func TestParallelEpochsAllocateNothing(t *testing.T) {
	sims := []*Simulator{NewSimulator(), NewSimulator()}
	tickers := []*ticker{{sim: sims[0]}, {sim: sims[1]}}
	for _, tk := range tickers {
		tk.sim.ScheduleArg(time.Millisecond, tick, tk)
	}
	l := &Lockstep{Sims: sims, Lookahead: time.Millisecond, Workers: 2}
	mallocs := func(d time.Duration) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l.RunFor(d)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	mallocs(10 * time.Millisecond) // the channels, and the event records' first lives
	short := mallocs(5 * time.Millisecond)
	epochs := l.Epochs()
	long := mallocs(time.Second)
	if epochs = l.Epochs() - epochs; epochs < 400 || l.IdleSkips() != 0 {
		t.Fatalf("%d epochs, %d idle in total: want hundreds, every one parallel", epochs, l.IdleSkips())
	}
	if long > short+8 {
		t.Fatalf("a RunUntil over %d parallel epochs allocated %d times, one over a few allocated %d", epochs, long, short)
	}
	if tickers[0].ticks != tickers[1].ticks {
		t.Fatalf("members ticked %d and %d times", tickers[0].ticks, tickers[1].ticks)
	}
}
