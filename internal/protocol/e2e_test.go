package protocol_test

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// Local aliases keep the test body readable.
type (
	Mission    = protocol.Mission
	MissionID  = protocol.MissionID
	Host       = protocol.Host
	HostConfig = protocol.HostConfig
	Packet     = protocol.Packet
)

var (
	NewMissionID = protocol.NewMissionID
	Dispatch     = protocol.Dispatch
	SlotID       = protocol.SlotID
	DecodePacket = protocol.DecodePacket
)

const PkSlotShare = protocol.PkSlotShare
const PkSecret = protocol.PkSecret

// testbed is a full simnet DHT network with a protocol host on every node.
type testbed struct {
	t         *testing.T
	sim       *sim.Simulator
	net       *simnet.Network
	nodes     []*dht.Node
	hosts     []*Host
	collector *adversary.Collector
	// tap, when set, is handed every payload a host receives before the
	// host handles it.
	tap func(h *Host, from dht.Contact, payload []byte)

	mu          sync.Mutex
	deliveries  map[MissionID]time.Time
	secrets     map[MissionID][]byte
	deliveredTo map[MissionID]dht.ID
}

// deliveryLatency is the testbed fabric's one-way delay: it has no jitter.
const deliveryLatency = 2 * time.Millisecond

// newTestbed boots n nodes; maliciousFrac of them are adversary-controlled
// (spy mode, or drop mode when drop is set). Optional hooks mutate each
// node's host configuration before the host is built.
func newTestbed(t *testing.T, n int, maliciousFrac float64, drop bool, hooks ...func(*HostConfig, *dht.Config)) *testbed {
	t.Helper()
	tb := &testbed{
		t:           t,
		sim:         sim.NewSimulator(),
		collector:   adversary.NewCollector(),
		deliveries:  make(map[MissionID]time.Time),
		secrets:     make(map[MissionID][]byte),
		deliveredTo: make(map[MissionID]dht.ID),
	}
	tb.net = simnet.New(tb.sim, simnet.Config{BaseLatency: deliveryLatency, Seed: 7})
	rng := stats.NewRNG(42)
	malCount := int(maliciousFrac * float64(n))
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("n%d", i))
		id := dht.RandomID(rng)
		tb.spawn(addr, id, i < malCount, drop, hooks...)
	}
	seed := []dht.Contact{tb.nodes[0].Contact()}
	for _, node := range tb.nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	tb.sim.Run()
	return tb
}

// spawn creates one live node+host at the given address and identifier,
// appending it to the testbed (reusing an address models a same-zone
// replacement join: fresh state, same DHT zone).
func (tb *testbed) spawn(addr transport.Addr, id dht.ID, malicious, drop bool, hooks ...func(*HostConfig, *dht.Config)) (*dht.Node, *Host) {
	tb.t.Helper()
	cfg := HostConfig{
		Malicious: malicious,
		Drop:      drop && malicious,
		Reporter:  tb.collector,
		OnSecret: func(mission MissionID, secret []byte) {
			tb.mu.Lock()
			defer tb.mu.Unlock()
			if _, dup := tb.deliveries[mission]; !dup {
				tb.deliveries[mission] = tb.sim.Now()
				tb.secrets[mission] = append([]byte(nil), secret...)
				tb.deliveredTo[mission] = id
			}
		},
	}
	node := dht.Config{ID: id, Endpoint: tb.net.Endpoint(addr), Clock: tb.sim}
	for _, hook := range hooks {
		hook(&cfg, &node)
	}
	var host *Host
	host, err := protocol.NewTappedHost(cfg, node, func(from dht.Contact, payload []byte) {
		if tb.tap != nil {
			tb.tap(host, from, payload)
		}
	})
	if err != nil {
		tb.t.Fatal(err)
	}
	tb.nodes = append(tb.nodes, host.Node())
	tb.hosts = append(tb.hosts, host)
	return host.Node(), host
}

// ownerOf returns the cluster node whose ID is closest to the given key.
func (tb *testbed) ownerOf(key dht.ID) *dht.Node {
	return tb.ownersOf(key, 1)[0]
}

// ownersOf returns the n cluster nodes closest to the given key, nearest
// first (the packet replica set).
func (tb *testbed) ownersOf(key dht.ID, n int) []*dht.Node {
	sorted := append([]*dht.Node(nil), tb.nodes...)
	sort.Slice(sorted, func(i, j int) bool {
		return key.CloserTo(sorted[i].ID(), sorted[j].ID())
	})
	if len(sorted) > n {
		sorted = sorted[:n]
	}
	return sorted
}

// launch dispatches a mission whose receiver is nodes[1] and returns it.
func (tb *testbed) launch(plan core.Plan, emerging time.Duration) Mission {
	tb.t.Helper()
	m := tb.mission(plan, emerging)
	if _, err := Dispatch(tb.nodes[2], m); err != nil {
		tb.t.Fatal(err)
	}
	return m
}

// mission returns a mission starting now whose receiver is nodes[1].
func (tb *testbed) mission(plan core.Plan, emerging time.Duration) Mission {
	tb.t.Helper()
	id, err := NewMissionID()
	if err != nil {
		tb.t.Fatal(err)
	}
	return Mission{
		ID:       id,
		Plan:     plan,
		Secret:   []byte("attack at dawn"),
		Receiver: tb.nodes[1].ID(),
		Start:    tb.sim.Now(),
		Release:  tb.sim.Now().Add(emerging),
	}
}

// deliveredAt returns the delivery time for a mission.
func (tb *testbed) deliveredAt(m MissionID) (time.Time, bool) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	at, ok := tb.deliveries[m]
	return at, ok
}

func (tb *testbed) secretFor(m MissionID) []byte {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.secrets[m]
}

// assertEmerges runs the clock past release and checks on-time delivery.
func (tb *testbed) assertEmerges(m Mission) {
	tb.t.Helper()
	// Just before release: nothing delivered.
	tb.sim.RunUntil(m.Release.Add(-time.Second))
	if at, ok := tb.deliveredAt(m.ID); ok {
		tb.t.Fatalf("secret delivered at %v, before release %v", at, m.Release)
	}
	// Past release (+ slack for lookups/latency).
	tb.sim.RunUntil(m.Release.Add(30 * time.Second))
	tb.sim.Run()
	at, ok := tb.deliveredAt(m.ID)
	if !ok {
		tb.t.Fatal("secret never emerged")
	}
	if at.Before(m.Release) {
		tb.t.Fatalf("secret emerged at %v, before release %v", at, m.Release)
	}
	if got := tb.secretFor(m.ID); !bytes.Equal(got, m.Secret) {
		tb.t.Fatalf("emerged secret = %q, want %q", got, m.Secret)
	}
}

func TestCentralEmergesOnTime(t *testing.T) {
	tb := newTestbed(t, 30, 0, false)
	m := tb.launch(core.PlanCentral(0), 2*time.Hour)
	tb.assertEmerges(m)
}

func TestDisjointEmergesOnTime(t *testing.T) {
	tb := newTestbed(t, 40, 0, false)
	plan := core.Plan{Scheme: core.SchemeDisjoint, K: 2, L: 3}
	m := tb.launch(plan, 3*time.Hour)
	tb.assertEmerges(m)
}

func TestJointEmergesOnTime(t *testing.T) {
	tb := newTestbed(t, 40, 0, false)
	plan := core.Plan{Scheme: core.SchemeJoint, K: 3, L: 3}
	m := tb.launch(plan, 3*time.Hour)
	tb.assertEmerges(m)
}

func TestShareEmergesOnTime(t *testing.T) {
	tb := newTestbed(t, 60, 0, false)
	plan := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 5, ShareM: []int{2, 2}}
	m := tb.launch(plan, 3*time.Hour)
	tb.assertEmerges(m)
}

func TestShareEmergesLongPath(t *testing.T) {
	tb := newTestbed(t, 80, 0, false)
	plan := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 5, ShareN: 4, ShareM: []int{2, 2, 2, 2}}
	m := tb.launch(plan, 5*time.Hour)
	tb.assertEmerges(m)
}

// TestDispatchConcurrent holds the package-level Dispatch to its contract:
// its crypto/rand default sender is safe for concurrent use (dhtnode calls
// it), so two goroutines dispatch through it at once, each onto its own
// network, and run their networks up to release. Both missions must emerge;
// under -race the run also checks that the two dispatches and their holders
// share nothing unguarded.
func TestDispatchConcurrent(t *testing.T) {
	plan := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{2, 2}}
	var (
		tbs      = [2]*testbed{newTestbed(t, 40, 0, false), newTestbed(t, 40, 0, false)}
		missions [2]Mission
		errs     [2]error
		wg       sync.WaitGroup
	)
	for i, tb := range tbs {
		missions[i] = tb.mission(plan, 3*time.Hour)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = Dispatch(tb.nodes[2], missions[i])
			tb.sim.RunUntil(missions[i].Release.Add(-time.Minute))
		}()
	}
	wg.Wait()
	for i, tb := range tbs {
		if errs[i] != nil {
			t.Fatalf("dispatch %d: %v", i, errs[i])
		}
		tb.assertEmerges(missions[i])
	}
}

func TestReleaseAheadFullCompromise(t *testing.T) {
	// Every node is a spy: the adversary holds every layer key at ts and
	// sees the entry onion, so the secret falls before a single holding
	// period elapses — the K4 case of Figure 2(b).
	tb := newTestbed(t, 40, 1.0, false)
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 3}
	m := tb.launch(plan, 3*time.Hour)

	tb.sim.RunFor(10 * time.Minute) // far before the first forward at +1h
	recoveredAt, ok := tb.collector.Recovered(m.ID)
	if !ok {
		t.Fatal("full-compromise adversary failed to reconstruct the secret")
	}
	if !recoveredAt.Before(m.Start.Add(time.Hour)) {
		t.Fatalf("recovered at %v, expected before the first hop", recoveredAt)
	}
	secret, _ := tb.collector.Secret(m.ID)
	if !bytes.Equal(secret, m.Secret) {
		t.Fatalf("adversary reconstructed %q", secret)
	}
	// Spies still forward: the legitimate receiver gets it too, on time.
	tb.assertEmerges(m)
}

func TestReleaseAheadShareSchemeFullCompromise(t *testing.T) {
	tb := newTestbed(t, 50, 1.0, false)
	plan := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 3, ShareN: 4, ShareM: []int{2, 2}}
	m := tb.launch(plan, 3*time.Hour)
	// The just-in-time structure delays even a full adversary: shares for
	// column c only exist once column c-1 peels. Run until one holding
	// period before release.
	tb.sim.RunUntil(m.Release.Add(-30 * time.Minute))
	if _, ok := tb.collector.Recovered(m.ID); !ok {
		t.Fatal("full-compromise adversary failed against share scheme")
	}
	recoveredAt, _ := tb.collector.Recovered(m.ID)
	if !recoveredAt.Before(m.Release) {
		t.Fatal("recovery not ahead of release")
	}
}

func TestDropAttackBlocksDelivery(t *testing.T) {
	tb := newTestbed(t, 40, 1.0, true)
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 3}
	m := tb.launch(plan, 2*time.Hour)
	tb.sim.RunUntil(m.Release.Add(time.Hour))
	tb.sim.Run()
	if at, ok := tb.deliveredAt(m.ID); ok {
		t.Fatalf("secret delivered at %v despite a full drop attack", at)
	}
}

func TestDisjointSinglePathDiesWithHolder(t *testing.T) {
	tb := newTestbed(t, 40, 0, false)
	plan := core.Plan{Scheme: core.SchemeDisjoint, K: 1, L: 2}
	// Fixed mission ID: the kill below targets the globally closest node to
	// slot (1,0), which must deterministically be the node the dispatch
	// lookup picked.
	id := MissionID{0xD1, 0x5C, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
	m := Mission{
		ID:       id,
		Plan:     plan,
		Secret:   []byte("fragile"),
		Receiver: tb.nodes[1].ID(),
		Start:    tb.sim.Now(),
		Release:  tb.sim.Now().Add(2 * time.Hour),
	}
	if _, err := Dispatch(tb.nodes[2], m); err != nil {
		t.Fatal(err)
	}
	// Let the packages land, then kill every replica holder of the single
	// path's first slot before any forwards.
	tb.sim.RunFor(time.Minute)
	for _, owner := range tb.ownersOf(SlotID(m.ID, 1, 0), 2) {
		if owner.ID() == tb.nodes[1].ID() {
			t.Skip("a replica holder is the receiver; skip")
		}
		if err := owner.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tb.sim.RunUntil(m.Release.Add(time.Hour))
	tb.sim.Run()
	if _, ok := tb.deliveredAt(m.ID); ok {
		t.Fatal("single-path mission survived its holder's death")
	}
}

func TestJointSurvivesOneHolderDeath(t *testing.T) {
	tb := newTestbed(t, 60, 0, false)
	plan := core.Plan{Scheme: core.SchemeJoint, K: 3, L: 2}
	id, err := NewMissionID()
	if err != nil {
		t.Fatal(err)
	}
	m := Mission{
		ID:       id,
		Plan:     plan,
		Secret:   []byte("redundant"),
		Receiver: tb.nodes[1].ID(),
		Start:    tb.sim.Now(),
		Release:  tb.sim.Now().Add(2 * time.Hour),
	}
	// Ensure the three first-column slots live on distinct nodes; the
	// mission ID is random, so retry a few times if they collide.
	owners := map[dht.ID]bool{}
	for try := 0; try < 20; try++ {
		owners = map[dht.ID]bool{}
		for s := 0; s < 3; s++ {
			owners[tb.ownerOf(SlotID(m.ID, 1, s)).ID()] = true
		}
		if len(owners) == 3 {
			break
		}
		m.ID[0]++
	}
	if len(owners) != 3 {
		t.Skip("could not find a mission ID with distinct first-column holders")
	}
	if _, err := Dispatch(tb.nodes[2], m); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunFor(time.Minute)
	victim := tb.ownerOf(SlotID(m.ID, 1, 0))
	receiverID := tb.nodes[1].ID()
	if victim.ID() == receiverID {
		t.Skip("victim is the receiver; skip")
	}
	if err := victim.Close(); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(m.Release.Add(30 * time.Second))
	tb.sim.Run()
	if _, ok := tb.deliveredAt(m.ID); !ok {
		t.Fatal("joint scheme failed to survive one first-column holder death")
	}
}

func TestDispatchValidation(t *testing.T) {
	tb := newTestbed(t, 10, 0, false)
	good := Mission{
		Plan:     core.PlanCentral(0),
		Secret:   []byte("s"),
		Receiver: tb.nodes[1].ID(),
		Start:    tb.sim.Now(),
		Release:  tb.sim.Now().Add(time.Hour),
	}
	cases := map[string]func(*Mission){
		"no secret":      func(m *Mission) { m.Secret = nil },
		"no receiver":    func(m *Mission) { m.Receiver = dht.ID{} },
		"release first":  func(m *Mission) { m.Release = m.Start.Add(-time.Hour) },
		"invalid plan":   func(m *Mission) { m.Plan = core.Plan{Scheme: core.SchemeJoint} },
		"unknown scheme": func(m *Mission) { m.Plan = core.Plan{Scheme: core.Scheme(9), K: 1, L: 1} },
	}
	for name, mutate := range cases {
		bad := good
		mutate(&bad)
		if _, err := Dispatch(tb.nodes[2], bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestSlotIDDeterministic(t *testing.T) {
	var m MissionID
	m[3] = 9
	a := SlotID(m, 2, 5)
	b := SlotID(m, 2, 5)
	c := SlotID(m, 2, 6)
	d := SlotID(m, 3, 5)
	if a != b {
		t.Error("SlotID not deterministic")
	}
	if a == c || a == d || c == d {
		t.Error("SlotID collisions across columns/slots")
	}
}

func TestPacketRoundTrip(t *testing.T) {
	var mid MissionID
	mid[0] = 0xAA
	p := Packet{
		Mission:   mid,
		Kind:      PkSlotShare,
		Column:    7,
		Slot:      3,
		X:         9,
		HoldUntil: 123456789,
		Step:      3600,
		Target:    dht.IDFromKey([]byte("r")),
		Data:      []byte("blob"),
	}
	got, err := DecodePacket(p.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Mission != p.Mission || got.Kind != p.Kind || got.Column != p.Column ||
		got.Slot != p.Slot || got.X != p.X || got.HoldUntil != p.HoldUntil ||
		got.Step != p.Step || got.Target != p.Target || !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, p)
	}
}

func TestPacketDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {1}, make([]byte, 40), bytes.Repeat([]byte{0xFF}, 80)} {
		if _, err := DecodePacket(raw); err == nil {
			t.Errorf("garbage %v accepted", raw)
		}
	}
	// Valid packet with trailing junk.
	p := Packet{Mission: MissionID{1}, Kind: PkSecret, Data: []byte("x")}
	enc := append(p.AppendEncode(nil), 0)
	if _, err := DecodePacket(enc); err == nil {
		t.Error("trailing junk accepted")
	}
}
