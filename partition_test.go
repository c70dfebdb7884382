package selfemerge

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"selfemerge/internal/protocol"
)

// runTrace drives a fixed two-mission workload on the configured network
// and returns a full observable fingerprint of the run: mission outcomes
// with timestamps and secrets, churn totals, and fabric counters.
func runTrace(t *testing.T, cfg NetworkConfig) string {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return traceMissions(t, net, 2, 2*time.Hour)
}

// traceMissions is runTrace's drive loop over an already booted network:
// missions one after another, each with the given emerging period.
func traceMissions(t *testing.T, net *Network, missions int, emerging time.Duration) string {
	t.Helper()
	out := ""
	for m := 0; m < missions; m++ {
		var id protocol.MissionID
		id[0] = byte(m + 1)
		msg, err := net.Send([]byte("partition golden"), emerging,
			WithScheme(SchemeJoint), WithThreatModel(0.1), WithMissionID(id))
		if err != nil {
			t.Fatal(err)
		}
		net.RunUntil(msg.Release().Add(time.Minute))
		net.Settle()
		plain, at, ok := net.Emerged(msg)
		recAt, rec := net.AdversaryRecovered(msg)
		out += fmt.Sprintf("mission=%d emerged=%v at=%d plain=%q recovered=%v recAt=%d\n",
			m, ok, at.UnixNano(), plain, rec, recAt.UnixNano())
	}
	deaths, joins := net.ChurnEvents()
	sent, delivered, dropped := net.FabricStats()
	out += fmt.Sprintf("deaths=%d joins=%d sent=%d delivered=%d dropped=%d now=%d\n",
		deaths, joins, sent, delivered, dropped, net.Now().UnixNano())
	return out
}

// classicTraces are runTrace fingerprints recorded from the single-loop
// engine at the last commit that had it, for TestPartitionOneMatchesClassic's
// config at two seeds; CHANGES.md lists each field's moves since.
var classicTraces = map[uint64]string{
	11: `mission=0 emerged=true at=10860005000004 plain="partition golden" recovered=true recAt=9831433571432
mission=1 emerged=true at=18420005000004 plain="partition golden" recovered=false recAt=-6795364578871345152
deaths=114 joins=114 sent=34503 delivered=34503 dropped=0 now=18780000000000
`,
	29: `mission=0 emerged=true at=10860005000004 plain="partition golden" recovered=false recAt=-6795364578871345152
mission=1 emerged=true at=18420005000004 plain="partition golden" recovered=true recAt=11220075000000
deaths=97 joins=97 sent=32788 delivered=32788 dropped=0 now=18780000000000
`,
}

// TestPartitionOneMatchesClassic is the compatibility golden: a one-shard
// network — the default, and an explicit Partition: 1 — must reproduce the
// recorded single-loop runs byte for byte: same deliveries, same timestamps,
// same churn and fabric counters. Shard 0 keeps every seed derivation those
// runs were captured under, and a one-shard lockstep executes the same event
// sequence.
func TestPartitionOneMatchesClassic(t *testing.T) {
	for _, seed := range []uint64{11, 29} {
		for _, partition := range []int{0, 1} {
			got := runTrace(t, NetworkConfig{
				Nodes:           80,
				MaliciousRate:   0.2,
				Attack:          AttackDrop,
				MeanLifetime:    3 * time.Hour,
				Repair:          true,
				HonestEndpoints: true,
				Replicas:        1,
				Seed:            seed,
				Partition:       partition,
			})
			if got != classicTraces[seed] {
				t.Errorf("seed %d Partition:%d diverged from the recorded single-loop run\nrecorded:\n%sgot:\n%s",
					seed, partition, classicTraces[seed], got)
			}
		}
	}
}

// TestPartitionDeterministicAcrossWorkers checks the partition engine's
// headline property end to end: a multi-shard run's full observable
// fingerprint is identical whether the shard loops run serially
// (GOMAXPROCS=1) or on concurrent workers.
func TestPartitionDeterministicAcrossWorkers(t *testing.T) {
	cfg := NetworkConfig{
		Nodes:           80,
		MaliciousRate:   0.2,
		Attack:          AttackDrop,
		MeanLifetime:    3 * time.Hour,
		Repair:          true,
		HonestEndpoints: true,
		Replicas:        1,
		Seed:            11,
		Partition:       4,
	}
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return runTrace(t, cfg)
	}
	serial := run(1)
	for _, procs := range []int{2, 4} {
		if got := run(procs); got != serial {
			t.Errorf("GOMAXPROCS=%d diverged from serial run\nserial:\n%sworkers:\n%s", procs, serial, got)
		}
	}
}

// TestPartitionDeliversAcrossShards is a plain liveness check: missions
// still emerge when the population spans several shards.
func TestPartitionDeliversAcrossShards(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 60, Seed: 1, Partition: 3})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("cross-shard"), 4*time.Hour,
		WithScheme(SchemeJoint), WithThreatModel(0.1))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(-time.Minute))
	if _, _, ok := net.Emerged(msg); ok {
		t.Fatal("message emerged before release time")
	}
	net.RunUntil(msg.Release().Add(time.Minute))
	net.Settle()
	plain, _, ok := net.Emerged(msg)
	if !ok {
		t.Fatal("message never emerged across shards")
	}
	if string(plain) != "cross-shard" {
		t.Fatalf("plaintext = %q", plain)
	}
}

// TestFaultAndEclipseComposeWithPartition covers the cells of the
// composition matrix that used to be rejected: every fault profile crossed
// with both packet-level adversaries, on one shard and on three. Each cell
// must boot, its full fingerprint — missions, fabric counters, resilience
// counters, forged contacts — must be byte-identical whether the shard loops
// run serially or at GOMAXPROCS=4, and the faults and forgeries must have
// actually fired. The flood is kept light: retried RPCs to forged contacts
// multiply an eclipse cell's datagrams roughly tenfold per tenfold ForgeRate.
func TestFaultAndEclipseComposeWithPartition(t *testing.T) {
	type attack struct {
		name     string
		strategy AttackStrategy
		forge    float64
	}
	for _, profile := range []FaultProfile{FaultNone, FaultBurst, FaultPartition, FaultFlap} {
		for _, atk := range []attack{{"drop", AttackDrop, 0}, {"eclipse", AttackEclipse, 3}} {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%v/%s/S%d", profile, atk.name, shards), func(t *testing.T) {
					// Not parallel: GOMAXPROCS is the process's, not the cell's.
					run := func(procs int) (trace string, dropped int, forged uint64) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						net, err := NewNetwork(NetworkConfig{
							Nodes:           60,
							MaliciousRate:   0.2,
							Attack:          atk.strategy,
							ForgeRate:       atk.forge,
							MeanLifetime:    time.Hour,
							Repair:          true,
							HonestEndpoints: true,
							Replicas:        1,
							Fault:           profile,
							FaultSeverity:   0.5,
							Retry:           3,
							Partition:       shards,
							Seed:            41,
						})
						if err != nil {
							t.Fatalf("NewNetwork rejected the cell: %v", err)
						}
						trace = traceMissions(t, net, 1, 5*time.Minute)
						_, _, dropped = net.FabricStats()
						forged = net.ForgedContacts()
						return trace + fmt.Sprintf("resilience=%+v forged=%d\n", net.ResilienceStats(), forged), dropped, forged
					}
					serial, dropped, forged := run(1)
					if got, _, _ := run(4); got != serial {
						t.Errorf("GOMAXPROCS=4 diverged from the serial run\nserial:\n%sGOMAXPROCS=4:\n%s", serial, got)
					}
					if profile != FaultNone && dropped == 0 {
						t.Error("the fault profile dropped nothing")
					}
					if atk.forge > 0 && forged == 0 {
						t.Error("the forger emitted nothing")
					}
				})
			}
		}
	}
}
