package churn

import (
	"math"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
)

func TestSampleLifetimeMean(t *testing.T) {
	s := sim.NewSimulator()
	p := New(s, Config{MeanLifetime: time.Hour, Seed: 1})
	var sum stats.Summary
	for i := 0; i < 50000; i++ {
		sum.Add(float64(p.SampleLifetime()))
	}
	want := float64(time.Hour)
	if math.Abs(sum.Mean()-want) > 0.03*want {
		t.Errorf("mean lifetime = %v, want ~%v", time.Duration(sum.Mean()), time.Hour)
	}
}

func TestScheduleDeathFires(t *testing.T) {
	s := sim.NewSimulator()
	p := New(s, Config{MeanLifetime: time.Hour, Seed: 2})
	died := false
	timer, life := p.ScheduleDeath(func(any) { died = true }, nil)
	if timer == (sim.ArgTimer{}) || life <= 0 {
		t.Fatal("no timer scheduled")
	}
	s.Run()
	if !died {
		t.Fatal("death never fired")
	}
}

func TestScheduleDeathDisabled(t *testing.T) {
	s := sim.NewSimulator()
	p := New(s, Config{})
	timer, life := p.ScheduleDeath(func(any) { t.Error("death fired with churn disabled") }, nil)
	if timer.Stop() || life != 0 {
		t.Fatal("expected the inert zero timer")
	}
	s.Run()
}

func TestScheduleDeathCancel(t *testing.T) {
	s := sim.NewSimulator()
	p := New(s, Config{MeanLifetime: time.Hour, Seed: 3})
	timer, _ := p.ScheduleDeath(func(any) { t.Error("cancelled death fired") }, nil)
	timer.Stop()
	s.Run()
}
