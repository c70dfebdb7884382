// Package dht is a mapiter fixture: range-over-map with order-dependent
// effects inside a determinism-critical package.
package dht

import (
	"sort"
)

type scheduler struct{}

func (scheduler) Schedule(d int, fn func()) {}

type emitter struct{ rows []string }

func (e *emitter) Emit(s string) {}

func appendNoSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `map iteration order leaks into append order of keys`
	}
	return keys
}

func appendThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendThenSliceSort(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	return vals
}

func scheduleEach(m map[string]func(), s scheduler) {
	for _, fn := range m {
		s.Schedule(1, fn) // want `map iteration order leaks into Schedule per map entry`
	}
}

func emitEach(m map[string]string, e *emitter) {
	for _, v := range m {
		e.Emit(v) // want `map iteration order leaks into Emit per map entry`
	}
}

func sendEach(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want `map iteration order leaks into a channel send`
	}
}

func sliceStore(m map[int]string, out []string) {
	i := 0
	for _, v := range m {
		out[i] = v // want `map iteration order leaks into element order of out`
		i++
	}
}

func lastWriteWins(m map[string]int, e *emitter) {
	for k := range m {
		e.rows = append(e.rows, k) // want `map iteration order leaks into append order of e\.rows`
	}
}

// Order-insensitive bodies stay legal: scalar accumulation, map-to-map
// stores, per-entry updates through the loop value, deletes.
func clean(m map[string]int, out map[string]int, dead map[string]bool) int {
	n := 0
	for k, v := range m {
		n += v
		out[k] = v
		if dead[k] {
			delete(out, k)
		}
	}
	return n
}

func lastKey(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want `map iteration order leaks into the surviving write to last`
	}
	return last
}

func lastDerived(m map[string]int) int {
	var last int
	for _, v := range m {
		d := 2 * v
		last = d // want `map iteration order leaks into the surviving write to last`
	}
	return last
}

// A store no entry decides and an op-assign end the same in any order.
func cleanScalars(m map[string]int) (bool, int) {
	found, sum := false, 0
	for _, v := range m {
		if v > 0 {
			found = true
		}
		sum += v
	}
	return found, sum
}

type box struct{ n int }

func cleanPerEntry(m map[string]*box) {
	for _, b := range m {
		b.n++
	}
}

func allowed(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v //lint:allow mapiter the consumer re-sorts by sequence number
	}
}
