package dht

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
	"selfemerge/internal/transport/udp"
)

// ownerCluster is a booted simnet cluster that records, per node, the app
// payloads it received in arrival order. Two clusters built with the same
// arguments are identical, so datagram counts of runs that differ in one
// thing can be subtracted.
type ownerCluster struct {
	*cluster
	got map[ID][]string
}

func newOwnerCluster(t *testing.T, n int, retry RetryPolicy) *ownerCluster {
	t.Helper()
	oc := &ownerCluster{
		cluster: &cluster{sim: sim.NewSimulator(), rng: stats.NewRNG(4321)},
		got:     make(map[ID][]string),
	}
	oc.net = simnet.New(oc.sim, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 17})
	// One loop, one scratch: every node's walks sit in one index.
	scratch := NewScratch(n)
	for i := 0; i < n; i++ {
		id := RandomID(oc.rng)
		node, err := NewNode(Config{
			ID:       id,
			Endpoint: oc.net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i))),
			Clock:    oc.sim,
			Scratch:  scratch,
			Retry:    retry,
			OnApp: appFunc(func(_ Contact, payload []byte) {
				oc.got[id] = append(oc.got[id], string(payload))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		oc.nodes = append(oc.nodes, node)
	}
	seed := []Contact{oc.nodes[0].Contact()}
	for _, node := range oc.nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	oc.sim.Run()
	return oc
}

// walksOf returns the owner walks n has in flight by key: the walks in its
// loop's index that n started.
func walksOf(n *Node) map[ID]*ownerWalk {
	walks := make(map[ID]*ownerWalk)
	for _, w := range n.cfg.Scratch.ownerWalks {
		if w.node == n {
			walks[w.key] = w
		}
	}
	return walks
}

// byDistance returns the cluster's node IDs nearest-first to key.
func (oc *ownerCluster) byDistance(key ID) []ID {
	ids := make([]ID, len(oc.nodes))
	for i, n := range oc.nodes {
		ids[i] = n.ID()
	}
	sort.Slice(ids, func(i, j int) bool { return key.CloserTo(ids[i], ids[j]) })
	return ids
}

// sentBy runs fn and the simulator to quiescence and returns the datagrams
// the fabric carried meanwhile.
func (oc *ownerCluster) sentBy(fn func()) int {
	before, _, _ := oc.net.Stats()
	fn()
	oc.sim.Run()
	after, _, _ := oc.net.Stats()
	return after - before
}

// doneLog collects SendToOwners completions: one entry per firing.
type doneLog struct {
	owners []Contact
	errs   []error
}

func (d *doneLog) cb() func(Contact, error) {
	return func(c Contact, err error) {
		d.owners = append(d.owners, c)
		d.errs = append(d.errs, err)
	}
}

const ownersTestSender = 11

// TestOwnerWalkCoalesces: N same-instant sends for one key from one node cost
// one walk's FIND_NODE traffic plus N app datagrams, arrive in call order, and
// each done fires once with the same owner.
func TestOwnerWalkCoalesces(t *testing.T) {
	const riders = 5
	key := IDFromKey([]byte("coalesced-slot"))
	run := func(n int) (*ownerCluster, int, *doneLog) {
		oc := newOwnerCluster(t, 40, RetryPolicy{})
		log := &doneLog{}
		sent := oc.sentBy(func() {
			for i := 0; i < n; i++ {
				oc.nodes[ownersTestSender].SendToOwners(key, []byte(fmt.Sprintf("p%d", i)), 1, log.cb())
			}
			if got := len(walksOf(oc.nodes[ownersTestSender])); got != 1 {
				t.Errorf("%d sends for one key: %d walks in flight, want 1", n, got)
			}
		})
		return oc, sent, log
	}
	_, single, _ := run(1)
	oc, sent, log := run(riders)
	if want := single + riders - 1; sent != want {
		t.Errorf("%d coalesced sends carried %d datagrams, want one walk (%d) + %d app = %d",
			riders, sent, single-1, riders, want)
	}
	owner := oc.byDistance(key)[0]
	if owner == oc.nodes[ownersTestSender].ID() {
		t.Fatal("test key is owned by the sender; pick another")
	}
	if len(log.owners) != riders {
		t.Fatalf("done fired %d times for %d sends", len(log.owners), riders)
	}
	for i := range log.owners {
		if log.errs[i] != nil || log.owners[i].ID != owner {
			t.Errorf("done %d: owner %s err %v, want %s", i, log.owners[i].ID.Short(), log.errs[i], owner.Short())
		}
	}
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	if fmt.Sprint(oc.got[owner]) != fmt.Sprint(want) {
		t.Errorf("owner received %v, want call order %v", oc.got[owner], want)
	}
	if got := len(walksOf(oc.nodes[ownersTestSender])); got != 0 {
		t.Errorf("%d walks still indexed after completion", got)
	}
}

// TestOwnerWalkRidersKeepOwnReplicas: riders asking for different replica
// counts share one walk and each reaches its own prefix — including when the
// sender itself ranks first, where the self insertion must happen once and a
// narrow rider must not cut the list for a wider one after it. done may
// recycle its payload the moment it fires, so it scribbles over it here.
func TestOwnerWalkRidersKeepOwnReplicas(t *testing.T) {
	for _, selfOwned := range []bool{false, true} {
		oc := newOwnerCluster(t, 40, RetryPolicy{})
		sender := oc.nodes[ownersTestSender]
		key := IDFromKey([]byte("replica-prefixes"))
		if selfOwned {
			key = sender.ID()
		}
		replicas := []int{1, 3, 2}
		fired := make([]int, len(replicas))
		var firstOwners []ID
		sent := oc.sentBy(func() {
			for i, r := range replicas {
				payload := []byte(fmt.Sprintf("r%d", r))
				sender.SendToOwners(key, payload, r, func(c Contact, err error) {
					fired[i]++
					firstOwners = append(firstOwners, c.ID)
					if err != nil {
						t.Errorf("rider %d: %v", i, err)
					}
					clear(payload)
				})
			}
		})
		ranked := oc.byDistance(key)
		for rank, want := range [][]string{{"r1", "r3", "r2"}, {"r3", "r2"}, {"r3"}} {
			if got := oc.got[ranked[rank]]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("selfOwned=%v: rank-%d owner received %v, want %v", selfOwned, rank, got, want)
			}
		}
		if got := oc.got[ranked[3]]; len(got) != 0 {
			t.Errorf("selfOwned=%v: rank-3 node received %v, want nothing", selfOwned, got)
		}
		for i, n := range fired {
			if n != 1 || firstOwners[i] != ranked[0] {
				t.Errorf("selfOwned=%v: rider %d done fired %d times with owner %s, want once with %s",
					selfOwned, i, n, firstOwners[i].Short(), ranked[0].Short())
			}
		}
		if selfOwned {
			// Three of the six deliveries are local; and the walk is the only
			// other traffic, so a single send must cost exactly three fewer.
			one := newOwnerCluster(t, 40, RetryPolicy{})
			single := one.sentBy(func() { one.nodes[ownersTestSender].SendToOwners(key, []byte("x"), 1, nil) })
			if sent != single+3 {
				t.Errorf("self-owned: %d datagrams, want walk (%d) + 3 remote deliveries", sent, single)
			}
		}
	}
}

// TestOwnerWalkFreshAfterFinish: a walk serves only the sends that arrived
// while it was in flight. One issued from a done callback, or any time later,
// resolves the key again.
func TestOwnerWalkFreshAfterFinish(t *testing.T) {
	oc := newOwnerCluster(t, 40, RetryPolicy{})
	sender := oc.nodes[ownersTestSender]
	key := IDFromKey([]byte("fresh-walk"))
	owner := oc.byDistance(key)[0]
	chained := false
	first := oc.sentBy(func() {
		sender.SendToOwners(key, []byte("a"), 1, func(Contact, error) {
			if len(walksOf(sender)) != 0 {
				t.Error("finished walk still indexed while its riders are served")
			}
			sender.SendToOwners(key, []byte("b"), 1, func(Contact, error) { chained = true })
			if len(walksOf(sender)) != 1 {
				t.Error("send from a done callback did not start a walk")
			}
		})
	})
	if !chained {
		t.Fatal("chained send never completed")
	}
	later := oc.sentBy(func() { sender.SendToOwners(key, []byte("c"), 1, nil) })
	if later < 3 || first < 2*later-2 {
		t.Errorf("datagrams: first+chained %d, later %d — each should pay for a walk of its own", first, later)
	}
	if fmt.Sprint(oc.got[owner]) != "[a b c]" {
		t.Errorf("owner received %v, want [a b c]", oc.got[owner])
	}
}

// TestOwnerWalkNeverMergesAcrossKeysOrNodes: the index is per node and per
// key.
func TestOwnerWalkNeverMergesAcrossKeysOrNodes(t *testing.T) {
	oc := newOwnerCluster(t, 40, RetryPolicy{})
	k1, k2 := IDFromKey([]byte("slot-one")), IDFromKey([]byte("slot-two"))
	a, b := oc.nodes[ownersTestSender], oc.nodes[23]
	a.SendToOwners(k1, []byte("a1"), 1, nil)
	a.SendToOwners(k2, []byte("a2"), 1, nil)
	b.SendToOwners(k1, []byte("b1"), 1, nil)
	if len(walksOf(a)) != 2 || len(walksOf(b)) != 1 {
		t.Fatalf("walks in flight: a=%d b=%d, want 2 and 1", len(walksOf(a)), len(walksOf(b)))
	}
	if walksOf(a)[k1] == walksOf(b)[k1] || len(walksOf(a)[k1].riders) != 1 || len(walksOf(b)[k1].riders) != 1 {
		t.Fatal("two nodes share a walk for one key")
	}
	oc.sim.Run()
	o1, o2 := oc.byDistance(k1)[0], oc.byDistance(k2)[0]
	got1 := append([]string(nil), oc.got[o1]...)
	sort.Strings(got1)
	if fmt.Sprint(got1) != "[a1 b1]" || fmt.Sprint(oc.got[o2]) != "[a2]" {
		t.Errorf("owners received %v and %v, want [a1 b1] and [a2]", got1, oc.got[o2])
	}
}

// TestOwnerWalkNotJoinedByLookups: a Lookup and a Bootstrap self-lookup for the key of an owner walk in flight each run their own
// lookup: none becomes a rider, none picks up the walk's self insertion, and
// the traffic is the sum of the parts.
func TestOwnerWalkNotJoinedByLookups(t *testing.T) {
	build := func() (*ownerCluster, *Node, ID) {
		oc := newOwnerCluster(t, 40, RetryPolicy{})
		sender := oc.nodes[ownersTestSender]
		return oc, sender, sender.ID() // self-owned: the walk inserts self, a Lookup must not
	}
	oc, sender, key := build()
	walkOnly := oc.sentBy(func() { sender.SendToOwners(key, []byte("w"), 1, nil) })
	oc, sender, key = build()
	lookupOnly := oc.sentBy(func() { sender.Lookup(key, func([]Contact) {}) })

	oc, sender, key = build()
	var looked, booted bool
	both := oc.sentBy(func() {
		sender.SendToOwners(key, []byte("w"), 1, nil)
		sender.Lookup(key, func(cs []Contact) {
			looked = true
			for _, c := range cs {
				if c.ID == sender.ID() {
					t.Error("Lookup result contains self: it was served by the owner walk")
				}
			}
		})
		sender.Bootstrap(nil, func(int) { booted = true })
		if w := walksOf(sender)[key]; len(walksOf(sender)) != 1 || len(w.riders) != 1 {
			t.Errorf("owner walk has %d riders after Lookup and Bootstrap, want 1", len(w.riders))
		}
	})
	if !looked || !booted {
		t.Fatalf("callbacks: lookup=%v bootstrap=%v", looked, booted)
	}
	if want := walkOnly + 2*lookupOnly; both != want {
		t.Errorf("walk + Lookup + Bootstrap carried %d datagrams, want %d + 2×%d = %d", both, walkOnly, lookupOnly, want)
	}
}

// TestOwnerWalkRidersAckedSeparately: under a retry policy every rider's
// payload is an acknowledged RPC of its own, so the receiver's (sender,
// RPCID) dedup sees N distinct deliveries, not N copies of one.
func TestOwnerWalkRidersAckedSeparately(t *testing.T) {
	const riders = 4
	key := IDFromKey([]byte("acked-riders"))
	run := func(n int) (*ownerCluster, int) {
		oc := newOwnerCluster(t, 40, RetryPolicy{Attempts: 3})
		return oc, oc.sentBy(func() {
			for i := 0; i < n; i++ {
				oc.nodes[ownersTestSender].SendToOwners(key, []byte("same bytes"), 1, nil)
			}
		})
	}
	_, single := run(1)
	oc, sent := run(riders)
	if want := single + 2*(riders-1); sent != want {
		t.Errorf("%d acked riders carried %d datagrams, want %d (one walk, an app and an ack each)", riders, sent, want)
	}
	var owner *Node
	for _, n := range oc.nodes {
		if n.ID() == oc.byDistance(key)[0] {
			owner = n
		}
	}
	if got := len(oc.got[owner.ID()]); got != riders {
		t.Errorf("owner's OnApp ran %d times, want %d", got, riders)
	}
	if res := owner.Resilience(); res.Duplicates != 0 {
		t.Errorf("owner counted %d duplicates among distinct riders", res.Duplicates)
	}
	if res := oc.nodes[ownersTestSender].Resilience(); res.Retries != 0 {
		t.Errorf("sender re-sent %d times on a loss-free fabric", res.Retries)
	}
}

// TestOwnerWalkFailureReachesEveryRider: when the walk finds nobody, and when
// the node is closed under it, each rider's done fires exactly once with the
// error.
func TestOwnerWalkFailureReachesEveryRider(t *testing.T) {
	const riders = 3
	key := IDFromKey([]byte("nobody-home"))
	t.Run("isolated", func(t *testing.T) {
		s, a, b := retryPair(t, Config{}, &dropFirst{n: 1 << 30}, nil)
		a.table.Observe(b.Contact()) // known, but never answers
		log := &doneLog{}
		for i := 0; i < riders; i++ {
			a.SendToOwners(key, []byte("x"), i+1, log.cb())
		}
		if len(walksOf(a)) != 1 || len(walksOf(a)[key].riders) != riders {
			t.Fatal("sends did not share the walk")
		}
		s.RunFor(time.Minute)
		if len(log.errs) != riders {
			t.Fatalf("done fired %d times for %d riders", len(log.errs), riders)
		}
		for i, err := range log.errs {
			if err != ErrLookupFailed || log.owners[i] != (Contact{}) {
				t.Errorf("rider %d: owner %v err %v, want ErrLookupFailed", i, log.owners[i], err)
			}
		}
	})
	t.Run("empty table", func(t *testing.T) {
		// Nothing to query: each walk finishes inside its own SendToOwners call.
		_, a, _ := retryPair(t, Config{}, nil, nil)
		log := &doneLog{}
		for i := 0; i < riders; i++ {
			a.SendToOwners(key, []byte("x"), 1, log.cb())
		}
		if len(log.errs) != riders || len(walksOf(a)) != 0 {
			t.Fatalf("done fired %d times, %d walks left indexed", len(log.errs), len(walksOf(a)))
		}
		for _, err := range log.errs {
			if err != ErrLookupFailed {
				t.Errorf("err = %v, want ErrLookupFailed", err)
			}
		}
	})
	t.Run("closed mid-walk", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, RetryPolicy{})
		sender := oc.nodes[ownersTestSender]
		log := &doneLog{}
		for i := 0; i < riders; i++ {
			sender.SendToOwners(key, []byte("x"), 1, log.cb())
		}
		oc.sim.RunFor(12 * time.Millisecond) // one round trip in: some answers folded, more queries out
		if len(log.errs) != 0 {
			t.Fatal("walk finished before the close; shorten the lead")
		}
		if err := sender.Close(); err != nil {
			t.Fatal(err)
		}
		oc.sim.Run()
		if len(log.errs) != riders {
			t.Fatalf("done fired %d times for %d riders", len(log.errs), riders)
		}
		for i, err := range log.errs {
			if !errors.Is(err, ErrClosed) && err != ErrLookupFailed {
				t.Errorf("rider %d: err = %v, want ErrClosed or ErrLookupFailed", i, err)
			}
		}
		if len(walksOf(sender)) != 0 {
			t.Error("closed node still indexes a walk")
		}
		for id, got := range oc.got {
			if len(got) != 0 {
				t.Errorf("node %s received %v from a closed sender", id.Short(), got)
			}
		}
	})
}

// TestOwnerWalkConcurrentSendersUDP drives the index from API goroutines on
// real sockets: two goroutines send to one key through one node, each send
// posted to the node's loop, where it interleaves with the socket reader's
// datagrams and the timers finishing walks. Every done must fire once and
// every payload must reach an owner. Run with -race.
func TestOwnerWalkConcurrentSendersUDP(t *testing.T) {
	const nodes, perSender = 5, 25
	var (
		mu       sync.Mutex
		received = make(map[string]int)
	)
	rng := stats.NewRNG(99)
	var cluster []*Node
	var loops []*udp.Loop
	for i := 0; i < nodes; i++ {
		loop := udp.NewLoop()
		ep, err := loop.Listen("127.0.0.1:0")
		if err != nil {
			loop.Stop()
			t.Skipf("no loopback UDP here: %v", err)
		}
		node, err := NewNode(Config{
			ID:       RandomID(rng),
			Endpoint: ep,
			Clock:    loop.Clock(),
			OnApp: appFunc(func(_ Contact, payload []byte) {
				mu.Lock()
				received[string(payload)]++
				mu.Unlock()
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			closed := make(chan struct{})
			loop.Post(func() { node.Close(); close(closed) })
			<-closed
			loop.Stop()
		}()
		cluster = append(cluster, node)
		loops = append(loops, loop)
	}
	seed := []Contact{cluster[0].Contact()}
	joined := make(chan int, nodes)
	for i, node := range cluster[1:] {
		loops[i+1].Post(func() { node.Bootstrap(seed, func(n int) { joined <- n }) })
	}
	for range cluster[1:] {
		select {
		case <-joined:
		case <-time.After(10 * time.Second):
			t.Fatal("bootstrap timed out")
		}
	}

	key := IDFromKey([]byte("contended-slot"))
	sender := cluster[1]
	done := make(chan error, 2*perSender)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := []byte(fmt.Sprintf("g%d-%d", g, i))
				loops[1].Post(func() { sender.SendToOwners(key, payload, 1, func(_ Contact, err error) { done <- err }) })
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < 2*perSender; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("send: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d done callbacks fired", i, 2*perSender)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("a done callback fired twice (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Loopback datagrams are not lost in practice, but delivery trails the
	// done callbacks: give the readers a moment before counting.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(received)
		mu.Unlock()
		if n == 2*perSender {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("%d of %d payloads delivered", n, 2*perSender)
		case <-time.After(5 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for p, n := range received {
		if n != 1 {
			t.Errorf("payload %s delivered %d times", p, n)
		}
	}
}
