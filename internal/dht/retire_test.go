package dht

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// fillBucket0 observes bucketK+1 contacts of bucket 0 (for a self whose top
// bit is clear), the first at mkBucket0(first): the bucket fills, the last
// one waits in the replacement cache, and under ping-evict a probe of the
// least-recently-seen entry goes out.
func fillBucket0(table *Table, first byte) {
	for i := 0; i <= bucketK; i++ {
		table.Observe(mkBucket0(first + byte(i)))
	}
}

// TestRetiredProbeCannotReachReplacement: a ping-evict probe outstanding when
// its node closes ends in the closing instant. The node rebuilt in place after
// that instant takes the table back, wiped, and the dead probe leaves its
// entries, replacement cache and probe flag as they were.
func TestRetiredProbeCannotReachReplacement(t *testing.T) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 1})
	var self ID
	self[IDBytes-1] = 1
	cfg := Config{ID: self, Endpoint: net.Endpoint("a"), Clock: s, Table: TablePingEvict, Scratch: NewScratch(0)}
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillBucket0(node.Table(), 10)
	retired := node.table
	if eb := retired.evict[0]; eb == nil || !eb.probing {
		t.Fatal("no probe outstanding at Close")
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Millisecond) // past the closing instant, short of the probe's timeout
	cfg.Endpoint = net.Endpoint("a")
	if err := node.Init(cfg); err != nil {
		t.Fatal(err)
	}
	if node.table != retired {
		t.Fatal("the node rebuilt in place did not take its table back")
	}
	fillBucket0(node.Table(), 100)
	before := dumpBuckets(node.table)
	if !strings.Contains(before, "bucket 0 probing=true") {
		t.Fatalf("the rebuilt node has no probe of its own outstanding:\n%s", before)
	}
	// Past the dead probe's timeout, short of the rebuilt node's own (its LRU
	// entry's address is nobody's).
	s.RunFor(rpcTimeout - time.Millisecond/2)
	if after := dumpBuckets(node.table); after != before {
		t.Errorf("the dead node's probe changed the rebuilt node's table:\nbefore\n%s\nafter\n%s", before, after)
	}
}

// TestClosedNodeFailsEveryOperation: once its table has gone to a replacement
// on the same loop, a closed node still fails what it is asked — a lookup
// finds nothing, an owner send sends nothing and hands its buffer back, and a
// ping reports ErrClosed, as an event, never inside the call.
func TestClosedNodeFailsEveryOperation(t *testing.T) {
	const n = 12
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 7})
	scratch := NewScratch(n)
	rng := stats.NewRNG(77)
	spawn := func(i int, id ID) *Node {
		node, err := NewNode(Config{ID: id, Endpoint: net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i))), Clock: s, Scratch: scratch})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = spawn(i, RandomID(rng))
	}
	seed := []Contact{nodes[0].Contact()}
	for _, node := range nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	s.RunFor(time.Minute)

	dead := nodes[5]
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	repl := spawn(5, dead.ID())
	repl.Bootstrap(seed, nil)
	s.RunFor(time.Minute)
	if repl.Table().Len() == 0 {
		t.Fatal("the replacement learned no contact")
	}

	looked, found := false, []Contact{{}}
	dead.Lookup(RandomID(rng), func(cs []Contact) { looked, found = true, slices.Clone(cs) })
	bufsOut := outstanding(dead)
	sendToOwners(dead, IDFromKey([]byte("k")), "x", 1)
	notYet := errors.New("callback never ran")
	pingErr := notYet
	dead.Ping(nodes[0].Contact(), func(err error) { pingErr = err })
	if pingErr != notYet {
		t.Fatal("Ping's callback ran inside the call")
	}
	s.RunFor(time.Minute)
	if !looked || len(found) != 0 {
		t.Errorf("lookup on a closed node: finished %v with %d contacts, want none", looked, len(found))
	}
	if got := outstanding(dead); got != bufsOut || sendsOut(dead) != 0 {
		t.Errorf("owner send on a closed node: %d buffers out, %d before it; %d send records out", got, bufsOut, sendsOut(dead))
	}
	if pingErr != ErrClosed {
		t.Errorf("ping from a closed node: %v, want ErrClosed", pingErr)
	}
}

// TestClosedNodeTableIsEmpty: Table on a closed node is empty, and what is
// written to it reaches neither the table the node keeps nor the next node
// on its loop.
func TestClosedNodeTableIsEmpty(t *testing.T) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{})
	scratch := NewScratch(0)
	var self ID
	self[IDBytes-1] = 1
	spawn := func() *Node {
		node, err := NewNode(Config{ID: self, Endpoint: net.Endpoint("a"), Clock: s, Scratch: scratch})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	node := spawn()
	fillBucket0(node.Table(), 10)
	retired := node.table
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	closed := node.Table()
	if closed == retired || closed.Len() != 0 {
		t.Fatalf("a closed node's Table lists %d contacts (the retired table: %v)", closed.Len(), closed == retired)
	}
	written := mkBucket0(200)
	closed.Observe(written)
	if node.Table().Len() != 0 || retired.Contains(written.ID) {
		t.Error("a write to a closed node's Table is visible through the next call or in the table it keeps")
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	next := spawn()
	if next.Table().Len() != 0 || next.Table().Contains(written.ID) {
		t.Errorf("the next node starts with %d contacts (the closed node's write: %v)", next.Table().Len(), next.Table().Contains(written.ID))
	}
}

// TestWipedTableBehavesFresh: a wiped table, full of another owner's
// contacts, spill records, replacement caches and a probe in flight, answers
// the same observations as a fresh one exactly: the same entries, caches and
// probes, the same selections. It keeps its entries array.
func TestWipedTableBehavesFresh(t *testing.T) {
	const k = 4
	rng := stats.NewRNG(31)
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	contacts := func(n int, tag string) []Contact {
		cs := make([]Contact, n)
		for i := range cs {
			cs[i] = Contact{ID: RandomID(rng), Addr: transport.Addr(fmt.Sprintf("%s-%d", tag, i))}
		}
		return cs
	}
	type probeLog struct{ probes []string }
	prepare := func(table *Table, log *probeLog) {
		table.book = privateBooks(24) // small enough to spill
		table.SetPolicy(TablePingEvict)
		table.SetPinger(func(c Contact, done func(bool)) {
			log.probes = append(log.probes, string(c.Addr))
			if len(log.probes)%2 == 0 {
				table.Remove(c.ID) // every other probe times out
			}
			done(len(log.probes)%2 != 0)
		})
	}
	feed := func(table *Table, cs []Contact) {
		for i, c := range cs {
			now = now.Add(time.Second)
			table.Observe(c)
			if i%7 == 0 {
				table.Remove(cs[i/2].ID)
			}
		}
	}

	used := NewTable(RandomID(rng), k, 10*time.Minute, clock)
	used.book = privateBooks(24)
	used.SetPolicy(TablePingEvict)
	used.SetPinger(func(Contact, func(bool)) {}) // its probes never finish
	feed(used, contacts(200, "old"))
	if spills(used) == 0 || len(used.evict) == 0 {
		t.Fatal("the first owner's table never spilled or never probed; lower the book bound")
	}
	kept := cap(used.entries)

	self, stream := RandomID(rng), contacts(300, "new")
	used.wipe(self, k, 10*time.Minute, nowFunc(clock))
	if used.Len() != 0 || used.spill != nil || used.occupied != (bucketSet{}) {
		t.Fatalf("wipe left %d contacts, %d spill records, occupancy %v", used.Len(), spills(used), used.occupied)
	}
	checkLayout(t, used)
	if cap(used.entries) != kept {
		t.Errorf("entries capacity %d after wipe, want the kept %d", cap(used.entries), kept)
	}
	fresh := NewTable(self, k, 10*time.Minute, clock)
	var wipedLog, freshLog probeLog
	prepare(used, &wipedLog)
	prepare(fresh, &freshLog)
	start := now
	feed(used, stream)
	now = start
	feed(fresh, stream)

	if got, want := visibleState(used), visibleState(fresh); got != want {
		t.Errorf("wiped and fresh tables differ:\nwiped\n%s\nfresh\n%s", got, want)
	}
	if !slices.Equal(wipedLog.probes, freshLog.probes) {
		t.Errorf("wiped table probed %v, fresh %v", wipedLog.probes, freshLog.probes)
	}
	for i := 0; i < 8; i++ {
		target := RandomID(rng)
		if got, want := used.Closest(target, 3*k), fresh.Closest(target, 3*k); !slices.Equal(got, want) {
			t.Errorf("Closest(%s): wiped %v, fresh %v", target.Short(), got, want)
		}
	}
}

// visibleState is dumpBuckets without its "probing=false" bucket headers: a
// wiped table keeps emptied replacement caches a fresh one never made, and a
// header is all that shows of them. Entries, caches and outstanding probes stay.
func visibleState(table *Table) string {
	var out []string
	for _, block := range strings.SplitAfter(dumpBuckets(table), "\n") {
		if block != "" && !(strings.HasPrefix(block, "bucket ") && strings.HasSuffix(block, "probing=false\n")) {
			out = append(out, block)
		}
	}
	return strings.Join(out, "")
}

// TestClosedNodeSendsNothing: a replacement re-opens its predecessor's
// endpoint, so the dead node's Endpoint is live again, under the
// replacement's name. Nothing the dead node is asked to send — the send
// helpers every datagram goes through, and every public operation — puts a
// datagram on the wire: the fabric counts no send, so the replacement and
// its peers receive nothing.
func TestClosedNodeSendsNothing(t *testing.T) {
	const n = 6
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 3})
	scratch := NewScratch(n)
	rng := stats.NewRNG(33)
	spawn := func(i int, id ID) *Node {
		node, err := NewNode(Config{ID: id, Endpoint: net.Endpoint(transport.Addr(fmt.Sprintf("node-%d", i))), Clock: s, Scratch: scratch})
		if err != nil {
			t.Fatal(err)
		}
		return node
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = spawn(i, RandomID(rng))
	}
	seed := []Contact{nodes[0].Contact()}
	for _, node := range nodes[1:] {
		node.Bootstrap(seed, nil)
	}
	s.RunFor(time.Minute)

	dead := nodes[3]
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	repl := spawn(3, dead.ID())
	if repl.cfg.Endpoint != dead.cfg.Endpoint {
		t.Fatal("the replacement did not re-open its predecessor's endpoint")
	}
	repl.Bootstrap(seed, nil)
	s.RunFor(time.Minute)
	sentBefore, deliveredBefore, _ := net.Stats()

	self, peer := repl.Contact(), nodes[0].Contact()
	for _, to := range []Contact{self, peer} {
		if err := dead.sendMessage(to.Addr, Message{Kind: KindApp, App: []byte("x")}); err != ErrClosed {
			t.Errorf("sendMessage from a closed node: %v, want ErrClosed", err)
		}
		dead.reply(to, Message{Kind: KindPong, RPCID: 1})
		dead.replyClosest(to.Addr, 2, RandomID(rng))
		dead.Ping(to, func(error) {})
		if err := dead.SendApp(to, []byte("x")); err != ErrClosed {
			t.Errorf("SendApp from a closed node: %v, want ErrClosed", err)
		}
	}
	dead.Lookup(RandomID(rng), func([]Contact) {})
	sendToOwners(dead, repl.ID(), "x", 2)
	dead.Bootstrap(seed, nil)
	s.RunFor(time.Minute)

	if sent, delivered, _ := net.Stats(); sent != sentBefore || delivered != deliveredBefore {
		t.Errorf("the closed node put %d datagrams on the wire, %d of them delivered", sent-sentBefore, delivered-deliveredBefore)
	}
}

// TestInitPanicsOnBuiltNode: Init builds a zero node or a closed one in
// place, and panics on an open one. A closed node keeps its entries array and
// starts again with an empty table.
func TestInitPanicsOnBuiltNode(t *testing.T) {
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{})
	var node Node
	if err := node.Init(Config{Endpoint: net.Endpoint("a"), Clock: s}); err == nil {
		t.Fatal("Init accepted a zero ID")
	}
	cfg := Config{ID: ID{1}, Endpoint: net.Endpoint("a"), Clock: s}
	if err := node.Init(cfg); err != nil {
		t.Fatal(err)
	}
	fillBucket0(node.Table(), 10)
	entries := &node.table.entries[:1][0]
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.ID, cfg.Endpoint = ID{2}, net.Endpoint("a")
	if err := node.Init(cfg); err != nil {
		t.Fatalf("Init on a closed node: %v", err)
	}
	if node.Closed() || node.Table().Len() != 0 || &node.table.entries[:1][0] != entries {
		t.Errorf("rebuilt node: closed %v, %d contacts, entries array kept %v",
			node.Closed(), node.Table().Len(), &node.table.entries[:1][0] == entries)
	}
	defer func() {
		if recover() == nil {
			t.Error("Init on an open node did not panic")
		}
	}()
	_ = node.Init(cfg)
}

// TestClosedNodeDrainsInItsInstant: everything a node has in flight when it
// closes drains in the instant it closed — a lookup, two owner walks (one
// with a second send), a local delivery, a ping-evict probe and, under a
// retry policy, an acked app send in its backoff gap. Its peers answer
// nothing, so every request is still waiting on its peer. Once the loop has
// run to the closing instant, no event the node scheduled is pending, every
// callback it owed has run and every record it took from its loop's lists is
// back. A churn join rebuilds a dead host in place on this contract
// (DESIGN.md, "Death → join").
func TestClosedNodeDrainsInItsInstant(t *testing.T) {
	for _, retry := range []int{0, 3} {
		t.Run(fmt.Sprintf("retry=%d", retry), func(t *testing.T) {
			s := sim.NewSimulator()
			net := simnet.New(s, simnet.Config{BaseLatency: 5 * time.Millisecond, Seed: 3})
			var self ID
			self[IDBytes-1] = 1
			delivered := 0
			victim, err := NewNode(Config{
				ID: self, Endpoint: net.Endpoint("victim"), Clock: s, Table: TablePingEvict, Retry: retry,
				OnApp: appFunc(func(Contact, []byte) { delivered++ }),
			})
			if err != nil {
				t.Fatal(err)
			}
			// out is how many records of each of the loop's lists are out of
			// it: every one the list made, less the ones it holds.
			sc := victim.cfg.Scratch
			out := func() [5]uint64 {
				return [5]uint64{
					sc.lookups.Misses() - uint64(sc.lookups.Len()),
					sc.sends.Misses() - uint64(sc.sends.Len()),
					sc.rpcs.Misses() - uint64(sc.rpcs.Len()),
					sc.locals.Misses() - uint64(sc.locals.Len()),
					sc.bufs.Misses() - uint64(sc.bufs.Len()),
				}
			}
			pending, taken := s.Pending(), out()

			if victim.Retrying() {
				// Timed out once, so waiting out its backoff gap (at least
				// 150 ms) when the node closes 100 ms from now.
				if err := victim.SendApp(mkBucket0(100), []byte("acked")); err != nil {
					t.Fatal(err)
				}
				s.RunFor(rpcTimeout + time.Millisecond)
			}
			fillBucket0(victim.Table(), 10) // a full bucket: its LRU entry is probed
			lookups := 0
			victim.Lookup(mkBucket0(50).ID, func([]Contact) { lookups++ })
			sendToOwners(victim, mkBucket0(60).ID, "a", 1)
			sendToOwners(victim, mkBucket0(60).ID, "b", 2)
			sendToOwners(victim, mkBucket0(70).ID, "c", 1)
			s.RunFor(100 * time.Millisecond) // every datagram has landed nowhere

			var closedAt time.Time
			s.Schedule(0, func() {
				// Three queries each for the lookup and the two walks, the
				// probe and the acked send.
				want := 11
				if !victim.Retrying() {
					want = 10
				} else if !victim.pending[0].waiting {
					t.Error("the acked app send is not in its backoff gap")
				}
				if len(victim.pending) != want || len(sc.ownerWalks) != 2 || !victim.table.evict[0].probing {
					t.Errorf("at Close: %d requests in flight, want %d; %d owner walks, want 2; probe out %v",
						len(victim.pending), want, len(sc.ownerWalks), victim.table.evict[0].probing)
				}
				if err := victim.deliverLocal([]byte("local")); err != nil {
					t.Error(err)
				}
				closedAt = s.Now()
				_ = victim.Close()
			})
			s.RunUntil(s.Now())

			if got := s.Pending(); got != pending {
				t.Errorf("%d events pending after the closing instant, %d before the node issued anything", got, pending)
			}
			if got := out(); got != taken {
				t.Errorf("records out of the loop's lists (lookups, sends, rpcs, locals, bufs): %v after the closing instant, %v before", got, taken)
			}
			if lookups != 1 || delivered != 1 {
				t.Errorf("in the closing instant: %d of 1 lookups finished, %d of 1 local deliveries made", lookups, delivered)
			}
			if len(victim.pending) != 0 || len(sc.ownerWalks) != 0 {
				t.Errorf("%d requests and %d owner walks still in flight", len(victim.pending), len(sc.ownerWalks))
			}
			if !s.Now().Equal(closedAt) {
				t.Errorf("the loop ran to %v, past the closing instant %v", s.Now(), closedAt)
			}
		})
	}
}
