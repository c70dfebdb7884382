// Package dht is a loopowned fixture: its path ends in a loop-owned package
// name, so locks and atomics need a named second context.
package dht

import (
	"sync"
	"sync/atomic"
)

type node struct {
	mu      sync.Mutex   // want `sync\.Mutex in loop-owned package`
	tableMu sync.RWMutex // want `sync\.RWMutex in loop-owned package`
	seq     atomic.Int64 // want `atomic\.Int64 in loop-owned package`
	pending map[uint64]int
}

func (n *node) next() uint64 {
	var id uint64
	return atomic.AddUint64(&id, 1) // want `atomic\.AddUint64 in loop-owned package`
}

// Waiting for workers and one-time set-up are not shared state.
func fanOut(work []func()) {
	var wg sync.WaitGroup
	var once sync.Once
	for _, w := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			once.Do(func() {})
			w()
		}()
	}
	wg.Wait()
}

// A real meeting point names its two contexts.
type inbox struct {
	mu sync.Mutex //lint:allow loopowned socket readers post, the loop goroutine drains
	q  []func()
}
