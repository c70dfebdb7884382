package main

import (
	"fmt"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose effective speed
// moves by 10–30% over tens of seconds (neighbours on the same cache and
// memory bus, stolen vCPU time). No estimator over one run's own samples
// removes that: minimum, median and mean of the same 20 s window all drift
// together. So every timed run interleaves the workload with a fixed
// calibration kernel — work that never changes with the repository — and
// reports host time on the kernel's clock:
//
//	speed         = calibNominal / mean kernel time of this run
//	reported time = measured time x speed
//
// A slow minute stretches workload and kernel alike and cancels; a change to
// the program moves only the numerator. Means, not medians, on both sides:
// if the host spends a third of the run in a slow state, both means carry
// that third linearly and their ratio still cancels.
//
// The kernel mixes the two things neighbours contend for, in about equal
// time: a dependent load chain over 8 MiB (cache and memory latency) and an
// in-cache generate-sort-hash loop (ALU, branch predictor). Sizing probes
// found the workloads track the mix at least as well as either part alone,
// and no weighting of the two consistently better (README, Estimator).

const (
	// calibNominal is one kernel run on the box the ledger was recorded on
	// (Xeon @ 2.10 GHz, 2 vCPUs, an ordinary hour), run between reps with the
	// caches the workload left behind: speed 1.0 is that box.
	calibNominal = 7 * time.Millisecond
	// calibShare is the part of a timed run the kernel gets, spread evenly:
	// after every rep it runs until it has had this share of the work time.
	calibShare = 0.15

	chaseWords = 2 << 20 // 8 MiB of uint32
	chaseSteps = 27000
	sortWords  = 1024
	sortRounds = 50
)

type calibrator struct {
	chase []uint32 // one random cycle through all of its indices
	at    uint32
	buf   [sortWords]uint64
	sink  uint64
	total time.Duration
	runs  int
	marks []calibrator // total and runs at the end of every whole pass
}

// newCalibrator maps the chase table outside the Go heap, so the kernel's
// working set is invisible to the collector: heap size, GC pacing and
// live_heap_mb of the program under test are what they would be without it.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, chaseWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration table: %w", err)
	}
	c := &calibrator{chase: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), chaseWords)}
	// Sattolo's algorithm: a uniformly random single cycle, fixed seed.
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(c.chase) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	for i := 0; i < 3; i++ { // warm up: fault the pages in, settle the clocks
		c.run()
	}
	c.total, c.runs = 0, 0
	return c, nil
}

func (c *calibrator) close() {
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&c.chase[0])), len(c.chase)*4)
	c.chase = nil
	syscall.Munmap(mem)
}

// run is one kernel run: allocation-free, the same work every time.
func (c *calibrator) run() {
	began := time.Now()
	at := c.at
	for i := 0; i < chaseSteps; i++ {
		at = c.chase[at]
	}
	c.at = at
	x, acc := uint64(at)|1, c.sink
	for r := 0; r < sortRounds; r++ {
		for i := range c.buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.buf[i] = x
		}
		slices.Sort(c.buf[:])
		for _, v := range c.buf {
			acc = (acc ^ v) * 1099511628211
		}
	}
	c.sink = acc
	c.total += time.Since(began)
	c.runs++
}

// keepUp runs the kernel until it has had calibShare of the work time so
// far, at least once.
func (c *calibrator) keepUp(work time.Duration) {
	for c.run(); float64(c.total) < calibShare*float64(work); {
		c.run()
	}
}

// mark closes a whole pass, so that passSpeed can tell the passes apart.
func (c *calibrator) mark() {
	c.marks = append(c.marks, calibrator{total: c.total, runs: c.runs})
}

// passSpeed is the host speed over the p-th marked pass alone.
func (c *calibrator) passSpeed(p int) float64 {
	var from calibrator
	if p > 0 {
		from = c.marks[p-1]
	}
	to := c.marks[p]
	return float64(calibNominal) * float64(to.runs-from.runs) / float64(to.total-from.total)
}

// speed is this run's host speed on the kernel's clock; 1 with no
// calibrator (the traced pass, which must not put the kernel in the profile).
func (c *calibrator) speed() float64 {
	if c == nil || c.runs == 0 {
		return 1
	}
	return float64(calibNominal) * float64(c.runs) / float64(c.total)
}
