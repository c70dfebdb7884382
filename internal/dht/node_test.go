package dht

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// cluster is a simnet DHT network for tests.
type cluster struct {
	sim   *sim.Simulator
	net   *simnet.Network
	nodes []*Node
	rng   *stats.RNG
}

// newCluster boots n nodes, all bootstrapped through node 0, and runs the
// simulator to quiescence.
func newCluster(t *testing.T, n int, _ func(self *Node, from Contact, payload []byte)) *cluster {
	t.Helper()
	c := &cluster{
		sim: sim.NewSimulator(),
		rng: stats.NewRNG(1234),
	}
	c.net = simnet.New(c.sim, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 99})
	for i := 0; i < n; i++ {
		addr := transport.Addr(fmt.Sprintf("node-%d", i))
		ep := c.net.Endpoint(addr)
		node, err := NewNode(Config{
			ID:       RandomID(c.rng),
			Endpoint: ep,
			Clock:    c.sim,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
	}
	seed := []Contact{c.nodes[0].Contact()}
	for _, node := range c.nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	c.sim.Run()
	return c
}

func TestClusterBootstrap(t *testing.T) {
	c := newCluster(t, 40, nil)
	for i, node := range c.nodes {
		if node.Table().Len() < 10 {
			t.Errorf("node %d knows only %d contacts", i, node.Table().Len())
		}
	}
}

func TestLookupFindsGloballyClosest(t *testing.T) {
	c := newCluster(t, 60, nil)
	target := IDFromKey([]byte("lookup-target"))

	// Ground truth: sort all node IDs by distance to target.
	ids := make([]ID, len(c.nodes))
	for i, n := range c.nodes {
		ids[i] = n.ID()
	}
	sort.Slice(ids, func(i, j int) bool { return target.CloserTo(ids[i], ids[j]) })

	var got []Contact
	c.nodes[7].Lookup(target, func(res []Contact) { got = append([]Contact(nil), res...) })
	c.sim.Run()

	if len(got) == 0 {
		t.Fatal("lookup returned nothing")
	}
	// The first few results must be the true closest nodes.
	for i := 0; i < 3 && i < len(got); i++ {
		if got[i].ID != ids[i] {
			t.Errorf("result[%d] = %s, want %s", i, got[i].ID.Short(), ids[i].Short())
		}
	}
}

// TestRejoinedLookupsFindGloballyClosest rebuilds a third of a cluster in
// place, one node a second as churn would, each with its own ID and address
// and a rejoin's early-stopping self-lookup. Every lookup from a rebuilt node,
// and every lookup to a key beside one, must still find the globally
// XOR-closest node: a rejoiner's neighbours already route to its ID, so a
// walk that stops once it learns nothing leaves no routing gap.
func TestRejoinedLookupsFindGloballyClosest(t *testing.T) {
	c := newCluster(t, 60, nil)
	seed := []Contact{c.nodes[0].Contact()}
	var rebuilt []*Node
	for i := 3; i < len(c.nodes); i += 3 {
		node := c.nodes[i]
		addr := node.Contact().Addr
		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		if err := node.Init(Config{ID: node.ID(), Endpoint: c.net.Endpoint(addr), Clock: c.sim}); err != nil {
			t.Fatal(err)
		}
		node.Rejoin(seed)
		c.sim.RunFor(time.Second)
		rebuilt = append(rebuilt, node)
	}
	c.sim.Run()

	// closest is the node nearest target other than from, which a lookup
	// never returns.
	closest := func(from *Node, target ID) ID {
		var best ID
		for _, n := range c.nodes {
			if n != from && (best.IsZero() || target.CloserTo(n.ID(), best)) {
				best = n.ID()
			}
		}
		return best
	}
	check := func(from *Node, target ID, what string) {
		var got []Contact
		from.Lookup(target, func(res []Contact) { got = append([]Contact(nil), res...) })
		c.sim.Run()
		if want := closest(from, target); len(got) == 0 || got[0].ID != want {
			t.Errorf("%s: lookup from %s for %s found %v, want %s first", what, from.ID().Short(), target.Short(), got, want.Short())
		}
	}
	for i, r := range rebuilt {
		for range 3 {
			check(r, RandomID(c.rng), "from a rejoined node")
		}
		beside := r.ID()
		beside[IDBytes-1] ^= 1
		check(c.nodes[(3*i+4)%len(c.nodes)], beside, "beside a rejoined node")
	}
}

func TestForgedFromCannotHijackAddress(t *testing.T) {
	c := newCluster(t, 10, nil)
	contactee, victim := c.nodes[2], c.nodes[6]
	contactee.Table().Observe(victim.Contact())

	// An attacker forges a ping claiming the victim's ID. handle() rewrites
	// From.Addr to the socket source, so accepting the address change would
	// re-point the victim's entry at the attacker.
	attacker := c.net.Endpoint("attacker")
	forged := Message{Kind: KindPing, From: Contact{ID: victim.ID(), Addr: attacker.Addr()}}
	data, err := forged.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := attacker.Send(transport.Addr("node-2"), data); err != nil {
		t.Fatal(err)
	}
	c.sim.Run()

	got := contactee.Table().Closest(victim.ID(), 1)
	if len(got) == 0 || got[0].ID != victim.ID() {
		t.Fatal("victim missing from routing table")
	}
	if got[0].Addr != victim.Contact().Addr {
		t.Fatalf("forged packet hijacked tracked address: %v", got[0].Addr)
	}
	// A verified exchange with the real peer still refreshes the entry.
	pingErr := fmt.Errorf("sentinel")
	contactee.Ping(got[0], func(err error) { pingErr = err })
	c.sim.Run()
	if pingErr != nil {
		t.Fatalf("ping real victim after forgery: %v", pingErr)
	}
}

func TestSendToOwnerRoutesToClosest(t *testing.T) {
	received := make(map[ID]string)
	var receivers []*Node
	c := &cluster{sim: sim.NewSimulator(), rng: stats.NewRNG(7)}
	c.net = simnet.New(c.sim, simnet.Config{BaseLatency: time.Millisecond, Seed: 1})
	for i := 0; i < 40; i++ {
		addr := transport.Addr(fmt.Sprintf("node-%d", i))
		ep := c.net.Endpoint(addr)
		id := RandomID(c.rng)
		node, err := NewNode(Config{
			ID:       id,
			Endpoint: ep,
			Clock:    c.sim,
			OnApp: appFunc(func(from Contact, payload []byte) {
				received[id] = string(payload)
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
		receivers = append(receivers, node)
	}
	seed := []Contact{c.nodes[0].Contact()}
	for _, node := range c.nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	c.sim.Run()

	key := IDFromKey([]byte("owner-routing"))
	sendToOwners(c.nodes[11], key, "package", 1)
	c.sim.Run()

	// The receiving node must be the globally closest to the key.
	best := receivers[0].ID()
	for _, n := range receivers {
		if key.CloserTo(n.ID(), best) {
			best = n.ID()
		}
	}
	if len(received) != 1 || received[best] != "package" {
		t.Errorf("the payload reached %d nodes, the closest %q; want the closest alone", len(received), received[best])
	}
}

func TestLookupSurvivesDeadNodes(t *testing.T) {
	c := newCluster(t, 50, nil)
	// Kill a third of the network.
	for i := 10; i < 26; i++ {
		if err := c.nodes[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	var got []Contact
	c.nodes[2].Lookup(IDFromKey([]byte("after-churn")), func(res []Contact) { got = append([]Contact(nil), res...) })
	c.sim.Run()
	if len(got) == 0 {
		t.Fatal("lookup failed after node deaths")
	}
}

func TestNodeValidation(t *testing.T) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{})
	ep := net.Endpoint("a")
	if _, err := NewNode(Config{Endpoint: ep, Clock: s}); err == nil {
		t.Error("zero ID accepted")
	}
	if _, err := NewNode(Config{ID: IDFromKey([]byte("x")), Clock: s}); err == nil {
		t.Error("nil endpoint accepted")
	}
	if _, err := NewNode(Config{ID: IDFromKey([]byte("x")), Endpoint: ep}); err == nil {
		t.Error("nil clock accepted")
	}
}

// appFunc is a function AppHandler.
type appFunc func(from Contact, payload []byte)

func (f appFunc) HandleApp(from Contact, payload []byte) { f(from, payload) }

func TestPing(t *testing.T) {
	c := newCluster(t, 5, nil)
	var pingErr = fmt.Errorf("sentinel")
	c.nodes[1].Ping(c.nodes[2].Contact(), func(err error) { pingErr = err })
	c.sim.Run()
	if pingErr != nil {
		t.Fatalf("ping failed: %v", pingErr)
	}
	// Ping a dead node: must time out.
	if err := c.nodes[3].Close(); err != nil {
		t.Fatal(err)
	}
	var timeoutErr error
	c.nodes[1].Ping(c.nodes[3].Contact(), func(err error) { timeoutErr = err })
	c.sim.Run()
	if timeoutErr != ErrTimeout {
		t.Fatalf("ping dead node: %v, want ErrTimeout", timeoutErr)
	}
}

func TestClosedNodeRejectsOps(t *testing.T) {
	c := newCluster(t, 5, nil)
	if err := c.nodes[4].Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.nodes[4].SendApp(c.nodes[0].Contact(), []byte("x")); err != ErrClosed {
		t.Errorf("SendApp on closed node: %v", err)
	}
	if err := c.nodes[4].Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRPCTimeoutRemovesFromTable(t *testing.T) {
	c := newCluster(t, 20, nil)
	victim := c.nodes[7]
	contactee := c.nodes[3]
	// Ensure contactee knows victim.
	contactee.Table().Observe(victim.Contact())
	c.net.SetDown(transport.Addr("node-7"), true)
	var err error
	contactee.Ping(victim.Contact(), func(e error) { err = e })
	c.sim.Run()
	if err != ErrTimeout {
		t.Fatalf("expected timeout, got %v", err)
	}
	if contactee.Table().Contains(victim.ID()) {
		t.Error("unresponsive node still in routing table")
	}
}
