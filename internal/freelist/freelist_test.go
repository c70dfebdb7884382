package freelist

import "testing"

type rec struct {
	n   int
	buf []byte
}

// TestListReusesLIFO: Get hands back the most recently Put record, as it was
// Put — the releasing side decides what survives.
func TestListReusesLIFO(t *testing.T) {
	l := List[rec]{Max: 4}
	a, b := l.Get(), l.Get()
	if a == b {
		t.Fatal("two misses returned one record")
	}
	a.n, a.buf = 1, make([]byte, 0, 64)
	b.n = 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b {
		t.Errorf("first Get after Put(a), Put(b) returned %p, want b %p", got, b)
	}
	got := l.Get()
	if got != a {
		t.Fatalf("second Get returned %p, want a %p", got, a)
	}
	if got.n != 1 || cap(got.buf) != 64 {
		t.Errorf("recycled record came back changed: n=%d cap=%d", got.n, cap(got.buf))
	}
	if l.Len() != 0 {
		t.Errorf("list holds %d records after both were taken", l.Len())
	}
}

// TestListMissIsZero: an empty list allocates a zero record, and keeps doing
// so — a miss never hands out a record twice.
func TestListMissIsZero(t *testing.T) {
	var l List[rec]
	seen := map[*rec]bool{}
	for i := 0; i < 8; i++ {
		r := l.Get()
		if r == nil || r.n != 0 || r.buf != nil {
			t.Fatalf("miss %d returned %+v, want a zero record", i, r)
		}
		if seen[r] {
			t.Fatalf("miss %d returned a record already handed out", i)
		}
		seen[r] = true
		r.n = i + 1
	}
}

// TestListBound: the list keeps Max records and drops the surplus; the zero
// value keeps nothing.
func TestListBound(t *testing.T) {
	l := List[rec]{Max: 3}
	for i := 0; i < 10; i++ {
		l.Put(&rec{n: i})
	}
	if l.Len() != 3 {
		t.Fatalf("list holds %d records after 10 Puts, want Max = 3", l.Len())
	}
	for want := 2; want >= 0; want-- {
		if r := l.Get(); r.n != want {
			t.Errorf("Get returned record %d, want %d: the surplus, not the kept, must be dropped", r.n, want)
		}
	}
	var zero List[rec]
	zero.Put(&rec{})
	if zero.Len() != 0 {
		t.Error("zero-value list kept a record")
	}
}

// TestListMisses: only a Get that finds the list empty counts, and the
// count is the allocations the list made.
func TestListMisses(t *testing.T) {
	l := List[rec]{Max: 2}
	a, b := l.Get(), l.Get()
	l.Put(a)
	l.Put(b)
	l.Get()
	l.Get()
	if l.Misses() != 2 {
		t.Fatalf("Misses = %d after two misses and two reuses, want 2", l.Misses())
	}
	l.Get()
	if l.Misses() != 3 {
		t.Fatalf("Misses = %d after a Get on an empty list, want 3", l.Misses())
	}
}
