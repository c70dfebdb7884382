package udp

import (
	"sync"
	"testing"
	"time"
)

// TestLoopPostOrder: fns posted from many goroutines each run exactly once,
// on the loop goroutine (the unsynchronised appends below are a race
// otherwise), and one goroutine's posts keep their order.
func TestLoopPostOrder(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	const posters, each = 8, 200
	var ran [][2]int // loop-owned
	var wg sync.WaitGroup
	for g := 0; g < posters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Post(func() { ran = append(ran, [2]int{g, i}) })
			}
		}()
	}
	wg.Wait()
	done := make(chan [][2]int)
	l.Post(func() { done <- ran }) // posted after every other fn, so it runs last
	var got [][2]int
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("loop never reached the last posted fn")
	}
	if len(got) != posters*each {
		t.Fatalf("%d fns ran, want %d", len(got), posters*each)
	}
	next := make([]int, posters)
	for _, r := range got {
		if r[1] != next[r[0]] {
			t.Fatalf("goroutine %d: fn %d ran where %d was due", r[0], r[1], next[r[0]])
		}
		next[r[0]]++
	}
}

// TestLoopTimers: on the loop a timer has the simulator's semantics on wall
// time — it fires once its delay has passed, Stop()==true means it never
// runs, and a fired timer reports Stop()==false.
func TestLoopTimers(t *testing.T) {
	l := NewLoop()
	defer l.Stop()
	type result struct {
		elapsed          time.Duration
		stoppedInTime    bool
		stoppedAfterFire bool
	}
	done := make(chan result)
	cancelledRan := false // loop-owned
	l.Post(func() {
		clock := l.Clock()
		start := clock.Now()
		cancelled := clock.AfterFunc(20*time.Millisecond, func() { cancelledRan = true })
		var r result
		fired := clock.AfterFunc(30*time.Millisecond, func() { r.elapsed = clock.Now().Sub(start) })
		clock.Schedule(10*time.Millisecond, func() { r.stoppedInTime = cancelled.Stop() })
		clock.Schedule(60*time.Millisecond, func() {
			r.stoppedAfterFire = fired.Stop()
			done <- r
		})
	})
	select {
	case r := <-done:
		if r.elapsed < 30*time.Millisecond {
			t.Errorf("30ms timer fired after %v", r.elapsed)
		}
		if !r.stoppedInTime {
			t.Error("Stop of a pending timer reported false")
		}
		if r.stoppedAfterFire {
			t.Error("Stop of a fired timer reported true")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timers never fired")
	}
	ran := make(chan bool)
	l.Post(func() { ran <- cancelledRan })
	if <-ran {
		t.Error("a timer ran after Stop reported true")
	}
}

// TestLoopStopWithTimersPending: Stop returns although timers are armed, and
// none of them runs afterwards.
func TestLoopStopWithTimersPending(t *testing.T) {
	l := NewLoop()
	armed := make(chan struct{})
	fired := make(chan struct{}, 2)
	l.Post(func() {
		l.Clock().Schedule(50*time.Millisecond, func() { fired <- struct{}{} })
		l.Clock().Schedule(time.Hour, func() { fired <- struct{}{} })
		close(armed)
	})
	<-armed
	stopped := make(chan struct{})
	go func() { l.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop did not return")
	}
	l.Post(func() { fired <- struct{}{} }) // dropped, not blocked on
	select {
	case <-fired:
		t.Fatal("something ran on a stopped loop")
	case <-time.After(100 * time.Millisecond):
	}
}
