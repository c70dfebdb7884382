// Package par is the module's one worker pool: it runs a sweep's points, a
// point's network shards and a Monte Carlo estimate's trial streams.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs job(0) … job(n-1) on at most w goroutines (GOMAXPROCS when
// w < 1) and returns once every started job has returned. Jobs start in
// index order, and none starts after a job has failed; the error of the
// lowest failing index is returned. Every index below a started one has
// started too, so that is the error a serial run would return. A job that
// writes only its own index's slot of a shared result makes the result
// independent of w.
func Do(n, w int, job func(i int) error) error {
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	errs := make([]error, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for range min(w, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = job(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
