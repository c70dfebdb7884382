package fault

import (
	"math"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

func TestParseProfileRoundTrip(t *testing.T) {
	for _, p := range []Profile{ProfileNone, ProfileBurst, ProfilePartition, ProfileFlap} {
		got, err := ParseProfile(p.String())
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", p.String(), err)
		}
		if got != p {
			t.Fatalf("ParseProfile(%q) = %v, want %v", p.String(), got, p)
		}
	}
	if _, err := ParseProfile("meteor"); err == nil {
		t.Fatal("ParseProfile accepted an unknown profile")
	}
	if p, err := ParseProfile(""); err != nil || p != ProfileNone {
		t.Fatalf("ParseProfile(\"\") = %v, %v; want none, nil", p, err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Severity: 1.5}).Validate(); err == nil {
		t.Fatal("severity 1.5 accepted")
	}
	if err := (Config{Severity: -0.1}).Validate(); err == nil {
		t.Fatal("severity -0.1 accepted")
	}
	if err := (Config{Profile: ProfileBurst, Severity: math.NaN()}).Validate(); err == nil {
		t.Fatal("severity NaN accepted")
	}
	if _, err := New(Config{Profile: ProfileBurst, Severity: 2}); err == nil {
		t.Fatal("New accepted severity 2")
	}
}

// TestBurstDeterminism: two engines with one seed produce identical verdict
// sequences; a different seed diverges.
func TestBurstDeterminism(t *testing.T) {
	mk := func(seed uint64) []simnet.Verdict {
		e, err := New(Config{Profile: ProfileBurst, Severity: 0.8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		vs := make([]simnet.Verdict, 0, 500)
		now := time.Unix(0, 0)
		for i := 0; i < 500; i++ {
			vs = append(vs, e.Judge(now, "a", "b"))
		}
		return vs
	}
	a, b, c := mk(7), mk(7), mk(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs across same-seed engines: %+v vs %+v", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical verdict sequences")
	}
}

// TestBurstInjectsFaults: at high severity the chain must actually drop,
// delay and duplicate something over a long window.
func TestBurstInjectsFaults(t *testing.T) {
	e, err := New(Config{Profile: ProfileBurst, Severity: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var drops, spikes, dups int
	now := time.Unix(0, 0)
	for i := 0; i < 5000; i++ {
		v := e.Judge(now, "a", "b")
		if v.Drop {
			drops++
		}
		if v.Extra > 0 {
			spikes++
		}
		if v.DupExtra > 0 {
			dups++
		}
	}
	if drops == 0 || spikes == 0 || dups == 0 {
		t.Fatalf("severity-1 burst injected nothing: drops=%d spikes=%d dups=%d", drops, spikes, dups)
	}
	if drops > 4000 {
		t.Fatalf("burst profile dropped %d/5000 — stationary loss too harsh", drops)
	}
}

// TestSeverityZeroNoOp: every profile at severity 0 returns the zero
// verdict and schedules no crashes.
func TestSeverityZeroNoOp(t *testing.T) {
	for _, p := range []Profile{ProfileBurst, ProfilePartition, ProfileFlap} {
		e, err := New(Config{Profile: p, Severity: 0, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(0, 0)
		for i := 0; i < 100; i++ {
			if v := e.Judge(now, "a", "b"); v != (simnet.Verdict{}) {
				t.Fatalf("%v at severity 0 returned %+v", p, v)
			}
		}
		s := sim.NewSimulator()
		stop := e.ManageCrashes(s, "a", setDown(func(bool) { t.Errorf("%v at severity 0 scheduled a crash", p) }))
		s.RunFor(24 * time.Hour)
		stop()
	}
}

// TestPartitionWindows: the bisection drops cross-side traffic only during
// the blackout window, same-side traffic never, and the window is a pure
// function of time (identical across engines regardless of draw history).
func TestPartitionWindows(t *testing.T) {
	e, err := New(Config{Profile: ProfilePartition, Severity: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Find two addresses on opposite sides and two on the same side.
	var left, right transport.Addr
	for _, a := range []transport.Addr{"n0", "n1", "n2", "n3", "n4", "n5"} {
		if side(a) == 0 && left == "" {
			left = a
		}
		if side(a) == 1 && right == "" {
			right = a
		}
	}
	if left == "" || right == "" {
		t.Fatal("test addresses all hashed to one side")
	}
	inWindow := time.Unix(0, int64(e.blackout)/2)
	outWindow := time.Unix(0, int64(e.blackout)+int64(partitionPeriod-e.blackout)/2)
	if !e.Judge(inWindow, left, right).Drop {
		t.Fatal("cross-side message survived inside the blackout window")
	}
	if e.Judge(inWindow, left, left).Drop {
		t.Fatal("same-side message dropped inside the blackout window")
	}
	if e.Judge(outWindow, left, right).Drop {
		t.Fatal("cross-side message dropped outside the blackout window")
	}
	// Next period: the window recurs.
	if !e.Judge(inWindow.Add(partitionPeriod), left, right).Drop {
		t.Fatal("blackout window did not recur in the next period")
	}
}

// setDown is a Fabric of one address: the crash tests watch the transitions.
type setDown func(down bool)

func (f setDown) SetDown(_ transport.Addr, down bool) { f(down) }

// TestManageCrashesDeterministic: one address's crash schedule is a pure
// function of (seed, addr) — independent of wiring order and other nodes.
func TestManageCrashesDeterministic(t *testing.T) {
	run := func(wireOthersFirst bool) []time.Duration {
		e, err := New(Config{Profile: ProfileFlap, Severity: 0.7, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		s := sim.NewSimulator()
		if wireOthersFirst {
			for _, a := range []transport.Addr{"x", "y", "z"} {
				stop := e.ManageCrashes(s, a, setDown(func(bool) {}))
				defer stop()
			}
		}
		var at []time.Duration
		start := s.Now()
		stop := e.ManageCrashes(s, "target", setDown(func(bool) {
			at = append(at, s.Now().Sub(start))
		}))
		defer stop()
		s.RunFor(time.Hour)
		return at
	}
	a, b := run(false), run(true)
	if len(a) == 0 {
		t.Fatal("flap profile scheduled no crash transitions in an hour")
	}
	if len(a) != len(b) {
		t.Fatalf("transition count depends on wiring order: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transition %d at %v vs %v — schedule depends on wiring order", i, a[i], b[i])
		}
	}
}

// TestManageCrashesStop: after stop, no further transitions fire.
func TestManageCrashesStop(t *testing.T) {
	e, err := New(Config{Profile: ProfileFlap, Severity: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := sim.NewSimulator()
	n := 0
	stop := e.ManageCrashes(s, "a", setDown(func(bool) { n++ }))
	s.RunFor(10 * time.Minute)
	if n == 0 {
		t.Fatal("no transitions before stop")
	}
	stop()
	before := n
	s.RunFor(10 * time.Minute)
	if n != before {
		t.Fatalf("transitions after stop: %d -> %d", before, n)
	}
}

// TestInjectorOnFabric: an engine wired into a simnet fabric perturbs
// delivery deterministically — two identical runs deliver identical
// counts, and a burst engine at full severity drops some messages.
func TestInjectorOnFabric(t *testing.T) {
	run := func() (sent, delivered, dropped int) {
		e, err := New(Config{Profile: ProfileBurst, Severity: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		s := sim.NewSimulator()
		net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 4})
		net.SetInjector(e)
		a := net.Endpoint("a")
		b := net.Endpoint("b")
		b.SetHandler(func(transport.Addr, []byte) {})
		for i := 0; i < 200; i++ {
			i := i
			s.AfterFunc(time.Duration(i)*time.Millisecond, func() {
				if err := a.Send("b", []byte{byte(i)}); err != nil {
					t.Error(err)
				}
			})
		}
		s.RunFor(time.Second)
		return net.Stats()
	}
	s1, d1, x1 := run()
	s2, d2, x2 := run()
	if s1 != s2 || d1 != d2 || x1 != x2 {
		t.Fatalf("fabric stats differ across identical runs: (%d,%d,%d) vs (%d,%d,%d)", s1, d1, x1, s2, d2, x2)
	}
	if x1 == 0 {
		t.Fatal("severity-1 burst dropped nothing on the fabric")
	}
	if d1 <= 0 {
		t.Fatal("nothing delivered under burst profile")
	}
}
