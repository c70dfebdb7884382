package selfemerge

import (
	"fmt"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
)

// loopMisses is what one event loop's recycled-record lists have allocated
// because they were empty: events, lookups (owner walks included), owner
// sends, RPCs (lookup queries included) and local deliveries. The fabric's
// delivery records are counted across loops: a cross-shard record leaves one
// loop's list and returns to another's.
type loopMisses struct {
	events, lookups, sends, rpcs, locals uint64
}

func (n *Network) recordMisses() (loops []loopMisses, deliveries uint64) {
	for _, sh := range n.shards {
		m := sh.scratch.Misses()
		loops = append(loops, loopMisses{sh.sim.EventMisses(), m.Lookups, m.Sends, m.RPCs, m.Locals})
	}
	return loops, n.fabric.DeliveryMisses()
}

// driveMissions sends missions of the plan staggered evenly over one
// emerging period, as scenario.Drive does, and runs until the last has
// released and its traffic has settled. round keeps the mission IDs of
// successive calls apart.
func driveMissions(t *testing.T, net *Network, plan core.Plan, missions, round int) {
	t.Helper()
	const emerging = 2 * time.Hour
	var last *Message
	for i := range missions {
		id := protocol.MissionID{byte(round), byte(i), byte(i >> 8), 0x5e}
		msg, err := net.Send([]byte(fmt.Sprintf("mission-%d", i)), emerging, WithPlan(plan), WithMissionID(id))
		if err != nil {
			t.Fatal(err)
		}
		last = msg
		if i < missions-1 {
			net.RunFor(emerging / time.Duration(missions))
		}
	}
	net.RunUntil(last.Release().Add(time.Minute))
	net.Settle()
}

// TestDriveAllocatesNoRecord guards the recycled-record bounds from below:
// a drive of the benchmark's steady-120, share-120 and lockstep-600 shapes,
// and of the default 200-node key-share point, takes every event, delivery,
// lookup (owner walks included) and RPC record it needs from its loop's
// lists, which the boot burst filled. So does a later drive for owner sends
// and local deliveries too, once a drive at twice the mission rate has warmed
// their lists (boot sends to no owner and delivers nothing).
// A bound set under what a drive takes from a list at once makes that list
// allocate here. The byte-buffer list is not checked: it holds the custody
// clones of the missions in flight for as long as they fly, so what it needs
// follows the mission count, not the drive's lookups.
func TestDriveAllocatesNoRecord(t *testing.T) {
	joint := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}
	share := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 2, ShareN: 4, ShareM: []int{2}}
	for _, tc := range []struct {
		name             string
		nodes, partition int
		missions         int
		plan             core.Plan
	}{
		{"steady-120", 120, 1, 30, joint},
		{"share-120", 120, 1, 30, share},
		{"lockstep-600", 600, 2, 20, joint},
		{"share-200", 200, 1, 100, share},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := NewNetwork(NetworkConfig{
				Nodes: tc.nodes, MaliciousRate: 0.1, Attack: AttackDrop, HonestEndpoints: true,
				MeanLifetime: 2 * time.Hour, Replicas: 1, Repair: true,
				Partition: tc.partition, Seed: 2017,
			})
			if err != nil {
				t.Fatal(err)
			}
			check := func(drive string, round int, warm bool) {
				t.Helper()
				before, beforeDeliveries := net.recordMisses()
				driveMissions(t, net, tc.plan, tc.missions, round)
				after, deliveries := net.recordMisses()
				for i := range after {
					if !warm {
						after[i].sends, after[i].locals = before[i].sends, before[i].locals
					}
					if after[i] != before[i] {
						t.Errorf("loop %d allocated records in the %s drive: misses %+v before it, %+v after", i, drive, before[i], after[i])
					}
				}
				if deliveries != beforeDeliveries {
					t.Errorf("the fabric allocated %d delivery records in the %s drive", deliveries-beforeDeliveries, drive)
				}
			}
			check("first", 1, false)
			driveMissions(t, net, tc.plan, 2*tc.missions, 2)
			check("warm", 3, true)
		})
	}
}

// TestHoldersForgetEveryMission is the custody oracle: a holder owes a record
// only while it has a duty left. After the last release plus Settle no host
// owes a record of any scheme's missions, repair loops running, and a network
// that carried 200 missions owes as many as one that carried 40: none.
func TestHoldersForgetEveryMission(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan core.Plan
	}{
		{"central", core.PlanCentral(0)},
		{"disjoint", core.Plan{Scheme: core.SchemeDisjoint, K: 2, L: 2}},
		{"joint", core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}},
		{"share", core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 2, ShareN: 4, ShareM: []int{2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, missions := range []int{40, 200} {
				net, err := NewNetwork(NetworkConfig{Nodes: 60, Repair: true, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				driveMissions(t, net, tc.plan, missions, 1)
				owed := 0
				for _, h := range net.nodes {
					owed += h.Records()
				}
				if owed != 0 {
					t.Errorf("after %d missions the holders owe %d records", missions, owed)
				}
			}
		})
	}
}

// TestJoinRebuildsOnlyFinishedHosts: a churn join rebuilds a dead host in
// place only once its death instant has finished, so whatever its closed node
// drained has run; the events the host armed itself find their records
// stale. The rebuilt host keeps nothing of its predecessor.
func TestJoinRebuildsOnlyFinishedHosts(t *testing.T) {
	boot := func(t *testing.T) *Network {
		t.Helper()
		net, err := NewNetwork(NetworkConfig{Nodes: 30, Retry: 3, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	// die kills the node at slot idx at the current instant and returns the
	// host that died and the one its replacement joined in.
	die := func(net *Network, idx int) (dead, joined *protocol.Host) {
		dead = net.nodes[idx]
		net.die(&net.shards[0], idx)
		return dead, net.nodes[idx]
	}
	silent := dht.Contact{ID: dht.IDFromKey([]byte("silent")), Addr: "silent"}

	t.Run("drain in flight", func(t *testing.T) {
		net := boot(t)
		victim := net.nodes[5]
		// The owner send holds its buffer until its walk has ended.
		bufs := victim.Node().Bufs()
		out := func() uint64 { return bufs.Misses() - uint64(bufs.Len()) }
		idle := out()
		buf := bufs.Get()
		*buf = append((*buf)[:0], "x"...)
		victim.Node().SendBufToOwners(dht.IDFromKey([]byte("walk")), buf, 1, 0)
		pinged := false
		victim.Node().Ping(silent, func(error) { pinged = true })
		if out() != idle+1 || pinged {
			t.Fatal("the owner walk or the ping finished inside its call")
		}
		if dead, joined := die(net, 5); joined == dead {
			t.Fatal("the join in the death instant rebuilt the dead host")
		}
		net.RunFor(time.Second)
		if walked := out() == idle; !walked || !pinged {
			t.Fatalf("owner walk finished %v, ping finished %v: the death left nothing in flight", walked, pinged)
		}
		if _, joined := die(net, 6); joined != victim {
			t.Fatal("a join at a later instant did not rebuild the dead host")
		}
	})

	t.Run("two deaths in one instant", func(t *testing.T) {
		net := boot(t)
		first, _ := die(net, 5)
		second, joined := die(net, 6)
		if joined == first {
			t.Fatal("a join rebuilt the host of a death in its own instant")
		}
		net.RunFor(time.Second)
		if _, joined := die(net, 7); joined != second {
			t.Fatal("a later join did not rebuild the host of the latest death")
		}
	})

	t.Run("hold armed", func(t *testing.T) {
		net := boot(t)
		holder := net.nodes[5]
		mission := protocol.MissionID{1}
		due := net.Now().Add(10 * time.Second)
		pkt := protocol.Packet{
			Mission: mission, Kind: protocol.PkCentral, HoldUntil: due.UnixNano(),
			Target: net.receiver.ID(), Data: []byte("secret"),
		}
		holder.HandleApp(net.nodes[0].Node().Contact(), pkt.AppendEncode(nil))
		holder.Node().Ping(silent, func(error) {})
		net.RunFor(2 * time.Second)
		old := holder.Node()
		oldID, oldIncarnation := old.ID(), old.Incarnation()
		if holder.Records() != 1 || old.Resilience().Retries == 0 {
			t.Fatalf("the holder owes %d custody records and %+v: nothing to carry over", holder.Records(), old.Resilience())
		}
		die(net, 5)
		net.RunFor(time.Second)
		if _, joined := die(net, 6); joined != holder {
			t.Fatal("a join at a later instant did not rebuild the holder with its hold armed")
		}
		net.RunUntil(due.Add(time.Minute))
		if _, ok := net.deliveries[mission]; ok {
			t.Error("the rebuilt host delivered its predecessor's central package")
		}
		// The rebuilt host carries nothing from its predecessor.
		node := holder.Node()
		if holder.Records() != 0 {
			t.Errorf("the rebuilt host owes %d custody records", holder.Records())
		}
		if node.ID() == oldID || node.Incarnation() <= oldIncarnation {
			t.Errorf("the rebuilt node is %v incarnation %d, its predecessor %v incarnation %d", node.ID(), node.Incarnation(), oldID, oldIncarnation)
		}
		if got := node.Resilience(); got != (dht.Resilience{}) {
			t.Errorf("the rebuilt node starts with resilience counters %+v", got)
		}
	})
}
