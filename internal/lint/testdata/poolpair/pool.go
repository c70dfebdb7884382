// Package poolpair exercises the recycler's acquire/release protocol: every
// freelist.List Get must reach its paired Put or an ownership transfer on
// every path out of the acquiring function.
package poolpair

import (
	"errors"

	"fixture/freelist"
)

type rec struct{ n int }

func (r *rec) park(reg *registry) { reg.parked[r.n] = r }

var pool = freelist.List[rec]{Max: 8}

// loop stands for a loop-owned scratch: most lists in the tree are fields,
// reached through an accessor.
type loop struct {
	bufs freelist.List[[]byte]
}

func (l *loop) Bufs() *freelist.List[[]byte] { return &l.bufs }

type registry struct {
	parked map[int]*rec
	queue  []*rec
}

func errOut() error { return errors.New("nope") }

func leakOnError(fail bool) error {
	r := pool.Get() // want `pooled record r acquired here may reach this return unreleased`
	if fail {
		return errOut()
	}
	pool.Put(r)
	return nil
}

func leakAtEnd(fail bool) {
	r := pool.Get() // want `pooled record r acquired here may reach function end unreleased`
	if fail {
		pool.Put(r)
	}
}

func leakInLoop(n int) {
	for i := 0; i < n; i++ {
		r := pool.Get() // want `pooled record r acquired here may reach the next loop iteration unreleased`
		if r.n > 0 {
			continue
		}
		pool.Put(r)
	}
}

func leakInSwitch(mode int) {
	r := pool.Get() // want `pooled record r acquired here may reach function end unreleased`
	switch mode {
	case 0:
		pool.Put(r)
	case 1:
		r.n = 0
	}
}

func releasedBothBranches(fail bool) error {
	r := pool.Get()
	if fail {
		pool.Put(r)
		return errOut()
	}
	pool.Put(r)
	return nil
}

func releasedByDefer(fail bool) error {
	r := pool.Get()
	defer pool.Put(r)
	if fail {
		return errOut()
	}
	return nil
}

// The documented Stop-ownership pattern: arming a timer with the record
// transfers ownership; the timer's fire/Stop paths release it.
func armTimer(arm func(*rec)) {
	r := pool.Get()
	arm(r)
}

// Storing the record parks ownership with the registry.
func parkInRegistry(reg *registry, id int) {
	r := pool.Get()
	reg.parked[id] = r
}

// Appending the record to a slice stores it.
func appendOwns(reg *registry) {
	r := pool.Get()
	reg.queue = append(reg.queue, r)
}

// Returning the record hands ownership to the caller.
func handOut() *rec {
	r := pool.Get()
	return r
}

// A capturing closure owns the record wherever it ends up running.
func closureOwns(schedule func(func())) {
	r := pool.Get()
	schedule(func() { pool.Put(r) })
}

// A method of the record receives it like any argument.
func receiverOwns(reg *registry) {
	r := pool.Get()
	r.park(reg)
}

// A list reached through an accessor: the buffer is filled, leaked when the
// encode fails, and otherwise handed to the sender that recycles it.
func encodeAndSend(l *loop, encode func([]byte) ([]byte, error), send func(*[]byte)) error {
	buf := l.Bufs().Get() // want `pooled record buf acquired here may reach this return unreleased`
	data, err := encode((*buf)[:0])
	if err != nil {
		return err
	}
	*buf = data
	send(buf)
	return nil
}

// The same with the error path releasing: every path pairs.
func encodeAndSendPaired(l *loop, encode func([]byte) ([]byte, error), send func(*[]byte)) error {
	buf := l.Bufs().Get()
	data, err := encode((*buf)[:0])
	if err != nil {
		l.Bufs().Put(buf)
		return err
	}
	*buf = data
	send(buf)
	return nil
}

func allowedDrop() {
	r := pool.Get() //lint:allow poolpair deliberate drop: the list allocates on a miss
	r.n = 0
}
