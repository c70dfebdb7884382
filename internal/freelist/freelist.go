// Package freelist is the tree's one recycling mechanism: a bounded LIFO of
// records that their owner hands back when it is done with them. Every
// recycled record in the module — simulator events, fabric deliveries, the
// DHT's lookup, owner-send and RPC records, wire and custody buffers — lives
// in a List, so "who owns this record while it is free" has one answer (the
// value the List is a field of) and the poolpair analyzer checks every
// acquire/release pair in one vocabulary.
//
// A List keeps its records across garbage collections: the standard
// library's pool is emptied by the collector, and on long runs that eviction
// made every post-GC acquisition allocate, which fed the next collection in
// turn.
package freelist

// List is a bounded LIFO of recycled *T records. Set Max where the list is
// declared and do not copy the list after first use. A List has no lock: it
// belongs to the dispatch context of the value it is a field of (an event
// loop's simulator, fabric slice or dht.Scratch) and is touched from there
// only. A list that several contexts share is guarded by its owner, where
// they meet (onion.buildBufs).
type List[T any] struct {
	// Max is how many free records the list keeps. A burst allocates past
	// it and the surplus is garbage once it drains, instead of staying
	// pinned at the high-water mark. The zero value keeps nothing.
	Max int

	free   []*T
	misses uint64
}

// Get pops the most recently freed record, or allocates a zero one. A
// recycled record comes back as it was Put: the releasing side clears what
// must not survive, and keeps what should (buffer capacity, generations).
func (l *List[T]) Get() *T {
	k := len(l.free)
	if k == 0 {
		l.misses++
		return new(T)
	}
	v := l.free[k-1]
	l.free[k-1] = nil
	l.free = l.free[:k-1]
	return v
}

// Put keeps v for reuse unless the list already holds Max records.
func (l *List[T]) Put(v *T) {
	if len(l.free) < l.Max {
		l.free = append(l.free, v)
	}
}

// Len reports how many free records the list holds.
func (l *List[T]) Len() int { return len(l.free) }

// Misses reports how many Gets found the list empty and allocated: a loop
// whose lists cover its working set stops adding to it once warm.
func (l *List[T]) Misses() uint64 { return l.misses }
