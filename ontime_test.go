package selfemerge

import (
	"fmt"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/protocol"
)

// TestEmergesOneLinkAfterRelease: the last holder resolves the receiver one
// lead ahead of the release and sends at it, so on a loss-free churned network
// in the steady-120 shape (120 nodes, a tenth of them dropping Sybils, mean
// lifetime one emerging period, joint 2×2 plan) every delivered mission
// emerges exactly one fabric link after its release — not the owner walk's
// seven rounds later. The fabric has no jitter, so the one other lag is none
// at all: the receiver was itself the last holder and delivered locally.
func TestEmergesOneLinkAfterRelease(t *testing.T) {
	const emerging, missions = 2 * time.Hour, 30
	net, err := NewNetwork(NetworkConfig{
		Nodes: 120, MaliciousRate: 0.1, Attack: AttackDrop, HonestEndpoints: true,
		MeanLifetime: emerging, Replicas: 1, Repair: true, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}
	var sent []*Message
	for i := range missions {
		id := protocol.MissionID{byte(i), 0x17}
		msg, err := net.Send([]byte(fmt.Sprintf("mission-%d", i)), emerging, WithPlan(plan), WithMissionID(id))
		if err != nil {
			t.Fatal(err)
		}
		sent = append(sent, msg)
		net.RunFor(emerging / missions)
	}
	net.RunUntil(sent[len(sent)-1].Release().Add(time.Minute))
	net.Settle()
	linked, local := 0, 0
	for i, msg := range sent {
		_, at, ok := net.Emerged(msg)
		if !ok {
			continue
		}
		switch lag := at.Sub(msg.Release()); lag {
		case latency:
			linked++
		case 0:
			local++
		default:
			t.Errorf("mission %d emerged %v after its release, want one link (%v)", i, lag, latency)
		}
	}
	t.Logf("%d missions emerged one link after release, %d at it", linked, local)
	if linked == 0 || local > linked {
		t.Errorf("%d missions emerged one link after release and %d at it", linked, local)
	}
}

// TestNeverEmergesBeforeRelease: a receiver that is itself its mission's last
// holder delivers the key locally at that holder's deadline, with no link in
// between, so a deadline even a nanosecond short of the release would
// emerge early. The planner's joint shape at a 2 h period splits it into
// holding periods that do not divide it evenly; rounded down, four missions
// on these seeds emerged 3 ns early.
func TestNeverEmergesBeforeRelease(t *testing.T) {
	const emerging, missions = 2 * time.Hour, 20
	for seed := uint64(1); seed <= 3; seed++ {
		net, err := NewNetwork(NetworkConfig{
			Nodes: 60, MaliciousRate: 0.1, Attack: AttackDrop, HonestEndpoints: true,
			MeanLifetime: 3 * time.Hour, Replicas: 1, Repair: true, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sent []*Message
		for i := range missions {
			msg, err := net.Send([]byte(fmt.Sprintf("mission-%d", i)), emerging,
				WithScheme(SchemeJoint), WithThreatModel(0.1), WithMissionID(protocol.MissionID{byte(i), 0xea}))
			if err != nil {
				t.Fatal(err)
			}
			sent = append(sent, msg)
			net.RunFor(emerging / missions)
		}
		net.RunUntil(sent[len(sent)-1].Release().Add(time.Minute))
		net.Settle()
		for i, msg := range sent {
			if _, at, ok := net.Emerged(msg); ok && at.Before(msg.Release()) {
				t.Errorf("seed %d mission %d emerged %v before its release", seed, i, msg.Release().Sub(at))
			}
		}
	}
}
