// Package other is not loop-owned: goroutines meet here as they please.
package other

import (
	"sync"
	"sync/atomic"
)

type store struct {
	mu   sync.RWMutex
	hits atomic.Int64
}
