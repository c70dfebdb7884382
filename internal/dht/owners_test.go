package dht

import (
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

func newOwnerCluster(t *testing.T, n int, retry int) *ownerCluster {
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
func walksOf(n *Node) map[ID]*lookupState {
	walks := make(map[ID]*lookupState)
	for _, ls := range n.cfg.Scratch.ownerWalks {
		if ls.node == n {
			walks[ls.target] = ls
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

// sendToOwners sends payload to key's replicas owners at once: a copy in a
// buffer of n's loop, handed to SendBufToOwners with no instant.
func sendToOwners(n *Node, key ID, payload string, replicas int) {
	buf := n.Bufs().Get()
	*buf = append((*buf)[:0], payload...)
	n.SendBufToOwners(key, buf, replicas, 0)
}

// sendsOut is how many owner-send records of n's loop's list are taken and
// not back.
func sendsOut(n *Node) uint64 {
	return n.cfg.Scratch.sends.Misses() - uint64(n.cfg.Scratch.sends.Len())
}

// released checks that n holds no walk, buffer or send record.
func released(t *testing.T, n *Node) {
	t.Helper()
	if w, b, p := len(walksOf(n)), outstanding(n), sendsOut(n); w != 0 || b != 0 || p != 0 {
		t.Errorf("%d walks indexed, %d buffers and %d send records out", w, b, p)
	}
}

const ownersTestSender = 11

// TestOwnerWalkCoalesces: N same-instant sends for one key from one node cost
// one walk's FIND_NODE traffic plus N app datagrams, reach the owner in call
// order, and hand every buffer and record back.
func TestOwnerWalkCoalesces(t *testing.T) {
	const riders = 5
	key := IDFromKey([]byte("coalesced-slot"))
	run := func(n int) (*ownerCluster, int) {
		oc := newOwnerCluster(t, 40, 0)
		sent := oc.sentBy(func() {
			for i := 0; i < n; i++ {
				sendToOwners(oc.nodes[ownersTestSender], key, fmt.Sprintf("p%d", i), 1)
			}
			if got := len(walksOf(oc.nodes[ownersTestSender])); got != 1 {
				t.Errorf("%d sends for one key: %d walks in flight, want 1", n, got)
			}
		})
		return oc, sent
	}
	_, single := run(1)
	oc, sent := run(riders)
	if want := single + riders - 1; sent != want {
		t.Errorf("%d coalesced sends carried %d datagrams, want one walk (%d) + %d app = %d",
			riders, sent, single-1, riders, want)
	}
	owner := oc.byDistance(key)[0]
	if owner == oc.nodes[ownersTestSender].ID() {
		t.Fatal("test key is owned by the sender; pick another")
	}
	want := []string{"p0", "p1", "p2", "p3", "p4"}
	if fmt.Sprint(oc.got[owner]) != fmt.Sprint(want) {
		t.Errorf("owner received %v, want call order %v", oc.got[owner], want)
	}
	sender := oc.nodes[ownersTestSender]
	if w, b, p := len(walksOf(sender)), outstanding(sender), sendsOut(sender); w != 0 || b != 0 || p != 0 {
		t.Errorf("after completion: %d walks indexed, %d buffers and %d send records out", w, b, p)
	}
}

// TestOwnerWalkRidersKeepOwnReplicas: sends asking for different replica
// counts share one walk and each reaches its own prefix — including when the
// sender itself ranks first, where the self insertion must happen once and a
// narrow send must not cut the list for a wider one after it. There the
// one-replica send is its table's to decide and goes local with no walk;
// the two wider sends still share one.
func TestOwnerWalkRidersKeepOwnReplicas(t *testing.T) {
	for _, selfOwned := range []bool{false, true} {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		key := IDFromKey([]byte("replica-prefixes"))
		if selfOwned {
			key = sender.ID()
		}
		sent := oc.sentBy(func() {
			for _, r := range []int{1, 3, 2} {
				sendToOwners(sender, key, fmt.Sprintf("r%d", r), r)
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
		if b, p := outstanding(sender), sendsOut(sender); b != 0 || p != 0 {
			t.Errorf("selfOwned=%v: %d buffers and %d send records out after the sends", selfOwned, b, p)
		}
		if selfOwned {
			// Three of the six deliveries are local, and one walk is the only
			// other traffic: a two-replica send costs that walk and one
			// remote delivery, so the three sends cost exactly two more.
			one := newOwnerCluster(t, 40, 0)
			pair := one.sentBy(func() { sendToOwners(one.nodes[ownersTestSender], key, "x", 2) })
			if sent != pair+2 {
				t.Errorf("self-owned: %d datagrams, want walk (%d) + 3 remote deliveries", sent, pair-1)
			}
		}
	}
}

// TestOwnSendTakesNoWalk: a one-replica send whose key the sender's own
// table ranks it first for goes to the sender alone with no walk: no
// datagram, local delivery at its instant and not before, and every buffer
// and record back. One contact on the key's near side, a second replica, or
// a closed sender each keep the walk's path.
func TestOwnSendTakesNoWalk(t *testing.T) {
	// own is a key that the sender's table ranks it first for, not its ID.
	own := func(t *testing.T, sender *Node) ID {
		t.Helper()
		key := sender.ID()
		key[IDBytes-1] ^= 0x5a
		if !sender.table.ranksSelfFirst(key) {
			t.Fatal("the sender's table ranks a contact first for its own neighbourhood")
		}
		return key
	}
	t.Run("owned", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		key := own(t, sender)
		at := oc.sim.Now().Add(time.Second)
		sent := oc.sentBy(func() {
			buf := sender.Bufs().Get()
			*buf = append((*buf)[:0], "own"...)
			sender.SendBufToOwners(key, buf, 1, at.UnixNano())
			if len(walksOf(sender)) != 0 {
				t.Error("a send the table decides started a walk")
			}
			oc.sim.RunUntil(at.Add(-time.Nanosecond))
			if got := oc.receivers("own"); len(got) != 0 {
				t.Errorf("%v received the payload before its instant", got)
			}
			oc.sim.RunUntil(at)
			if got := oc.receivers("own"); len(got) != 1 || got[0] != sender.ID() {
				t.Errorf("at its instant the payload is at %v, want the sender alone", got)
			}
		})
		if sent != 0 {
			t.Errorf("a send the table decides carried %d datagrams, want 0", sent)
		}
		released(t, sender)
	})
	t.Run("one contact nearer", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, 0)
		// The key that differs from self at one bucket's bit alone has that
		// bucket, and only it, on its near side: pick a sender with a bucket
		// of one.
		var sender *Node
		var key ID
		for _, n := range oc.nodes {
			for idx := 0; idx < IDBits && sender == nil; idx++ {
				if _, lo, hi := n.table.run(idx); hi-lo == 1 {
					sender, key = n, idInBucket(n.ID(), idx)
				}
			}
		}
		if sender == nil {
			t.Fatal("no node's table has a bucket of exactly one contact")
		}
		sent := oc.sentBy(func() {
			sendToOwners(sender, key, "near", 1)
			if len(walksOf(sender)) != 1 {
				t.Error("a send with a contact on the key's near side took no walk")
			}
		})
		if got := oc.receivers("near"); sent < 3 || len(got) != 1 || got[0] != oc.byDistance(key)[0] {
			t.Errorf("%d datagrams, payload at %v: want a walk to the owner %s", sent, got, oc.byDistance(key)[0].Short())
		}
		released(t, sender)
	})
	t.Run("two replicas", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		key := own(t, sender)
		sent := oc.sentBy(func() {
			sendToOwners(sender, key, "pair", 2)
			if len(walksOf(sender)) != 1 {
				t.Error("a two-replica send took no walk")
			}
		})
		want := oc.byDistance(key)[:2]
		if got := oc.receivers("pair"); sent < 3 || len(got) != 2 || got[0] == got[1] ||
			(got[0] != want[0] && got[0] != want[1]) || (got[1] != want[0] && got[1] != want[1]) {
			t.Errorf("%d datagrams, payload at %v: want a walk to the two owners %v", sent, got, want)
		}
		released(t, sender)
	})
	t.Run("closed", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		key := own(t, sender)
		if err := sender.Close(); err != nil {
			t.Fatal(err)
		}
		oc.sim.Run()
		sent := oc.sentBy(func() { sendToOwners(sender, key, "closed", 1) })
		if got := oc.receivers("closed"); sent != 0 || len(got) != 0 {
			t.Errorf("a closed sender carried %d datagrams and delivered to %v", sent, got)
		}
		released(t, sender)
	})
}

// TestOwnerWalkFreshAfterFinish: a walk serves only the sends that arrived
// while it was in flight. One issued once it has finished resolves the key
// again, with a walk of its own.
func TestOwnerWalkFreshAfterFinish(t *testing.T) {
	oc := newOwnerCluster(t, 40, 0)
	sender := oc.nodes[ownersTestSender]
	key := IDFromKey([]byte("fresh-walk"))
	owner := oc.byDistance(key)[0]
	for _, payload := range []string{"a", "b", "c"} {
		sent := oc.sentBy(func() {
			sendToOwners(sender, key, payload, 1)
			if len(walksOf(sender)) != 1 {
				t.Errorf("send %s did not start a walk", payload)
			}
		})
		if sent < 3 {
			t.Errorf("send %s carried %d datagrams: it paid for no walk of its own", payload, sent)
		}
	}
	if fmt.Sprint(oc.got[owner]) != "[a b c]" {
		t.Errorf("owner received %v, want [a b c]", oc.got[owner])
	}
}

// TestOwnerWalkNeverMergesAcrossKeysOrNodes: the index is per node and per
// key.
func TestOwnerWalkNeverMergesAcrossKeysOrNodes(t *testing.T) {
	oc := newOwnerCluster(t, 40, 0)
	k1, k2 := IDFromKey([]byte("slot-one")), IDFromKey([]byte("slot-two"))
	a, b := oc.nodes[ownersTestSender], oc.nodes[23]
	sendToOwners(a, k1, "a1", 1)
	sendToOwners(a, k2, "a2", 1)
	sendToOwners(b, k1, "b1", 1)
	if len(walksOf(a)) != 2 || len(walksOf(b)) != 1 {
		t.Fatalf("walks in flight: a=%d b=%d, want 2 and 1", len(walksOf(a)), len(walksOf(b)))
	}
	if walksOf(a)[k1] == walksOf(b)[k1] || len(walksOf(a)[k1].sends) != 1 || len(walksOf(b)[k1].sends) != 1 {
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

// TestOwnerWalkNotJoinedByLookups: a Lookup and a Bootstrap self-lookup for
// the key of an owner walk in flight each run their own lookup: none rides
// it, none picks up the walk's self insertion, and the traffic is the sum of
// the parts. The walk sends at two replicas: a one-replica send of a
// self-owned key takes no walk.
func TestOwnerWalkNotJoinedByLookups(t *testing.T) {
	build := func() (*ownerCluster, *Node, ID) {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		return oc, sender, sender.ID() // self-owned: the walk inserts self, a Lookup must not
	}
	oc, sender, key := build()
	walkOnly := oc.sentBy(func() { sendToOwners(sender, key, "w", 2) })
	oc, sender, key = build()
	lookupOnly := oc.sentBy(func() { sender.Lookup(key, func([]Contact) {}) })

	oc, sender, key = build()
	var looked, booted bool
	both := oc.sentBy(func() {
		sendToOwners(sender, key, "w", 2)
		sender.Lookup(key, func(cs []Contact) {
			looked = true
			for _, c := range cs {
				if c.ID == sender.ID() {
					t.Error("Lookup result contains self: it was served by the owner walk")
				}
			}
		})
		sender.Bootstrap(nil, func(int) { booted = true })
		if w := walksOf(sender)[key]; len(walksOf(sender)) != 1 || len(w.sends) != 1 {
			t.Errorf("owner walk has %d sends after Lookup and Bootstrap, want 1", len(w.sends))
		}
	})
	if !looked || !booted {
		t.Fatalf("callbacks: lookup=%v bootstrap=%v", looked, booted)
	}
	if want := walkOnly + 2*lookupOnly; both != want {
		t.Errorf("walk + Lookup + Bootstrap carried %d datagrams, want %d + 2×%d = %d", both, walkOnly, lookupOnly, want)
	}
}

// TestOwnerWalkRidersAckedSeparately: under a retry policy every send's
// payload is an acknowledged RPC of its own, so the receiver's (sender,
// RPCID) dedup sees N distinct deliveries, not N copies of one.
func TestOwnerWalkRidersAckedSeparately(t *testing.T) {
	const riders = 4
	key := IDFromKey([]byte("acked-riders"))
	run := func(n int) (*ownerCluster, int) {
		oc := newOwnerCluster(t, 40, 3)
		return oc, oc.sentBy(func() {
			for i := 0; i < n; i++ {
				sendToOwners(oc.nodes[ownersTestSender], key, "same bytes", 1)
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
// the node is closed under it, every send on it sends nothing and hands its
// buffer and record back.
func TestOwnerWalkFailureReachesEveryRider(t *testing.T) {
	const riders = 3
	key := IDFromKey([]byte("nobody-home"))
	t.Run("isolated", func(t *testing.T) {
		got := 0
		count := appFunc(func(Contact, []byte) { got++ })
		s, a, b := retryPair(t, Config{OnApp: count}, &dropFirst{n: 1 << 30}, count)
		a.table.Observe(b.Contact()) // known, but never answers
		for i := 0; i < riders; i++ {
			sendToOwners(a, key, "x", i+1)
		}
		if len(walksOf(a)) != 1 || len(walksOf(a)[key].sends) != riders {
			t.Fatal("sends did not share the walk")
		}
		s.RunFor(time.Minute)
		if got != 0 {
			t.Errorf("a walk that found nobody delivered %d payloads", got)
		}
		released(t, a)
	})
	t.Run("empty table", func(t *testing.T) {
		// Nothing to query: each walk finishes inside its own send.
		got := 0
		s, a, _ := retryPair(t, Config{OnApp: appFunc(func(Contact, []byte) { got++ })}, nil, nil)
		for i := 0; i < riders; i++ {
			sendToOwners(a, key, "x", 1)
			released(t, a)
		}
		s.RunFor(time.Minute)
		if got != 0 {
			t.Errorf("a node alone delivered %d payloads to itself", got)
		}
	})
	t.Run("closed mid-walk", func(t *testing.T) {
		oc := newOwnerCluster(t, 40, 0)
		sender := oc.nodes[ownersTestSender]
		for i := 0; i < riders; i++ {
			sendToOwners(sender, key, "x", 1)
		}
		oc.sim.RunFor(12 * time.Millisecond) // one round trip in: some answers folded, more queries out
		if len(walksOf(sender)) != 1 {
			t.Fatal("walk finished before the close; shorten the lead")
		}
		if err := sender.Close(); err != nil {
			t.Fatal(err)
		}
		oc.sim.Run()
		released(t, sender)
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
// datagrams and the timers finishing walks. Every payload must reach an
// owner once. Run with -race.
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
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				payload := fmt.Sprintf("g%d-%d", g, i)
				loops[1].Post(func() { sendToOwners(sender, key, payload, 1) })
			}
		}(g)
	}
	wg.Wait()
	// Loopback datagrams are not lost in practice, but delivery trails the
	// walks: give the readers a moment before counting.
	deadline := time.After(10 * time.Second)
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
	// Give a second copy of any payload a moment to land before counting.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	for p, n := range received {
		if n != 1 {
			t.Errorf("payload %s delivered %d times", p, n)
		}
	}
}
