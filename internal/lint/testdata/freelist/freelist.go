// Package freelist mirrors the real recycler's List for the poolpair
// fixtures: the analyzer matches the type by name and the package path's
// final element, so fixtures exercise it without importing the module under
// test.
package freelist

// List is a bounded LIFO of recycled records.
type List[T any] struct {
	Max  int
	free []*T
}

// Get pops a recycled record, or allocates a zero one.
func (l *List[T]) Get() *T {
	if k := len(l.free); k > 0 {
		v := l.free[k-1]
		l.free = l.free[:k-1]
		return v
	}
	return new(T)
}

// Put keeps v for reuse unless the list is full.
func (l *List[T]) Put(v *T) {
	if len(l.free) < l.Max {
		l.free = append(l.free, v)
	}
}
