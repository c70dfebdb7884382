package udp

import (
	"sync"
	"time"

	"selfemerge/internal/sim"
)

// Loop is the dispatch context of a real-socket node: one goroutine that owns
// a sim.Simulator and runs it on wall time. It sleeps until the earliest
// timer is due or something is posted, advances the simulator's clock to the
// wall clock — which runs the due timers — and then runs what was posted.
// The node sees the very timer semantics it has in a simulation, because it
// is on the same scheduler; only the driver differs.
//
// Everything the loop owns — the simulator, the node, its table and scratch —
// is touched from the loop goroutine alone. Any other goroutine (a socket
// reader, main calling the node's API) enters through Post.
type Loop struct {
	sim *sim.Simulator

	// mu guards the inbox, where the posting goroutines and the loop
	// goroutine meet.
	mu    sync.Mutex
	inbox []func()
	wake  chan struct{} // holds a token while the inbox may be non-empty

	stop chan struct{}
	done chan struct{}
}

// NewLoop starts a loop. Stop it when the node is done.
func NewLoop() *Loop {
	l := &Loop{
		sim:  sim.NewSimulator(),
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	l.sim.RunUntil(time.Now()) // nothing is scheduled yet: this only sets the clock
	go l.run()
	return l
}

// Clock is the loop's clock, for the components that run on the loop. Like
// them, it is used from the loop only.
func (l *Loop) Clock() sim.Clock { return l.sim }

// Post queues fn to run on the loop goroutine and returns at once; fns run in
// the order they were posted. It is the one way in for other goroutines, and
// is also safe from the loop itself. A fn posted after Stop never runs.
func (l *Loop) Post(fn func()) {
	l.mu.Lock()
	l.inbox = append(l.inbox, fn)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default: // a token is already waiting
	}
}

// Stop ends the loop and waits for its goroutine to exit; pending timers and
// queued fns are dropped. Call it once, from outside the loop.
func (l *Loop) Stop() {
	close(l.stop)
	<-l.done
}

func (l *Loop) run() {
	defer close(l.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	var batch []func()
	for {
		l.sim.RunUntil(time.Now())
		l.mu.Lock()
		batch, l.inbox = l.inbox, batch[:0]
		l.mu.Unlock()
		for i, fn := range batch {
			fn()
			batch[i] = nil
		}
		// What the batch scheduled for right now is overdue by the time it is
		// looked at, so the wait below is zero and the next pass runs it.
		wait := time.Duration(1<<63 - 1)
		if at, ok := l.sim.NextAt(); ok {
			wait = time.Until(at)
		}
		timer.Reset(wait)
		select {
		case <-l.stop:
			return
		case <-l.wake:
		case <-timer.C:
		}
	}
}
