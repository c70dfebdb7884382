package par

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestDo runs each case at w ∈ {1, 2, 8}. Once several goroutines run, the
// higher of two failing indices fails first: the lower one waits until it has
// returned, and so does every job above it. So the pool sees the higher
// failure while the lower one is still out.
func TestDo(t *testing.T) {
	cases := []struct {
		name string
		n    int
		fail []int // ascending, at most two
	}{
		{"no jobs", 0, nil},
		{"all succeed", 40, nil},
		{"first job fails", 40, []int{0}},
		{"one failure", 40, []int{5}},
		{"lowest of two wins", 40, []int{3, 7}},
		{"lowest of two far apart wins", 40, []int{1, 30}},
	}
	for _, tc := range cases {
		for _, w := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/w=%d", tc.name, w), func(t *testing.T) {
				jobErrs := make([]error, tc.n)
				for _, i := range tc.fail {
					jobErrs[i] = fmt.Errorf("job %d", i)
				}
				last := -1
				if len(tc.fail) > 0 {
					last = tc.fail[len(tc.fail)-1]
				}
				lastDone := make(chan struct{})
				var mu sync.Mutex
				var started []int
				running, peak := 0, 0
				out := make([]int, tc.n)
				err := Do(tc.n, w, func(i int) error {
					mu.Lock()
					started = append(started, i)
					running++
					peak = max(peak, running)
					mu.Unlock()
					defer func() {
						mu.Lock()
						running--
						mu.Unlock()
					}()
					switch {
					case i == last:
						defer close(lastDone)
					case w > 1 && last >= 0 && (i > last || jobErrs[i] != nil):
						<-lastDone
					case last < 0:
						// Long enough for goroutines beyond w, were there any,
						// to start jobs of their own meanwhile.
						time.Sleep(100 * time.Microsecond)
					}
					out[i] = i*i + 1
					return jobErrs[i]
				})

				if peak > w {
					t.Errorf("%d jobs ran at once on %d goroutines", peak, w)
				}
				slices.Sort(started)
				for k, i := range started {
					if i != k {
						t.Fatalf("started jobs %v are not an index prefix", started)
					}
				}
				if len(tc.fail) == 0 {
					if err != nil {
						t.Fatalf("Do = %v, want nil", err)
					}
					for i, v := range out {
						if v != i*i+1 {
							t.Fatalf("out[%d] = %d, want %d", i, v, i*i+1)
						}
					}
					return
				}
				if want := jobErrs[tc.fail[0]]; err != want {
					t.Errorf("Do = %v, want the lowest failure %v", err, want)
				}
				// Serially no job starts after the first failure. With more
				// goroutines a job can start between a failure's return and the
				// pool seeing it, so only the serial count is exact.
				if w == 1 && len(started) != tc.fail[0]+1 {
					t.Errorf("%d jobs started, want %d", len(started), tc.fail[0]+1)
				}
				if w > 1 && len(started) <= last {
					t.Errorf("%d jobs started, but job %d ran", len(started), last)
				}
				for _, i := range started {
					if jobErrs[i] == nil && out[i] != i*i+1 {
						t.Errorf("out[%d] = %d, want %d", i, out[i], i*i+1)
					}
				}
			})
		}
	}
}
