package dht

import (
	"selfemerge/internal/freelist"
	"selfemerge/internal/transport"
)

// Scratch is the recycled working memory of every node that shares one
// serial dispatch context — one simulator event loop, or one real node's
// udp.Loop. It owns what a node needs only while it is handling an event and
// that outlives any single node: the receive-path decode Message, the ID and
// address books its nodes' routing tables and lookups refer to, the freelists
// of lookup states, owner-send records, in-flight RPC records, local-delivery
// records and byte buffers, the index of owner walks in flight, the
// acked-delivery dedup index, and the loop's SendCounts. None of it is
// observable: sharing changes who pays for the memory, never a wire byte or
// an event — short of the dedup index's bound, which a shared index reaches
// sooner.
//
// Ownership rule: all nodes handed the same Scratch must have their handlers
// and timers dispatched from one serial context (handlers are delivered from
// scheduled events, never synchronously from a send, so one event loop is
// such a context). Nothing here is guarded; Receive panics on re-entry, the
// runtime half of the check whose static half is the loopowned analyzer.
//
// Node scope was the wrong owner for this state: under churn it died with its
// node several times per mission and was re-bought by the replacement, and at
// boot every node pinned a private arena sized for its own bootstrap burst
// for the rest of its life.
type Scratch struct {
	// Receive path: one datagram is decoded and dispatched at a time.
	rx     Message
	rxBusy bool
	// books number the IDs and addresses of the contacts the loop's tables
	// and lookups keep: their entries carry handles into them.
	books

	lookups freelist.List[lookupState]
	sends   freelist.List[ownerSend]
	rpcs    freelist.List[pendingRPC]
	locals  freelist.List[localDelivery]
	// bufs is the loop's one byte-buffer list: the wire form of every datagram
	// a node sends (free again when Endpoint.Send returns), and — through
	// Node.Bufs — the protocol layer's encoded packets (held until their owner
	// send's last copy) and custody clones (held until the package peels).
	// The buffers mix freely and each grows to the largest use it has served.
	bufs freelist.List[[]byte]

	// ownerWalks indexes the owner walks in flight on the loop, so a node's
	// second owner send for a key joins its first's walk (see lookupState). A
	// walk leaves it when it finishes, so it holds only walks in flight;
	// looked up, never ranged over.
	ownerWalks map[walkKey]*lookupState
	// appSeen dedups the acked app deliveries of every node on the loop.
	appSeen appSeen
	// incarnations numbers the nodes built on this scratch (Node.incarnation),
	// so a replacement that takes its predecessor's ID starts with no marks.
	incarnations uint32
	// counts is what the loop's nodes sent, across their deaths.
	counts SendCounts
	// owners is the loop's population when its caller knows it
	// (SetPopulation), which names the true owner of a key; nil otherwise.
	// Only read.
	owners *Population
	// app is the loop state of the application above the nodes (the
	// protocol layer's custody ledger), made by its first user: this
	// package cannot name its type.
	app any
}

// SendCounts counts a loop's owner sends and app datagrams. Each is a pure
// function of the loop's event sequence, so a simulated run reports the same
// counts at any core count.
type SendCounts struct {
	// OwnerWalks is the owner sends that started a FIND_NODE walk, and
	// OwnerWalksAtTarget those walks that ended when the key's own node
	// answered (lookupState.toTarget).
	OwnerWalks, OwnerWalksAtTarget uint64
	// OwnerWalksExact is the walks whose first owner is the key's true
	// owner, the node XOR-closest to it in the whole population. It is
	// counted only on a loop given its population (SetPopulation).
	OwnerWalksExact uint64
	// OwnerSendsSelf is the one-replica owner sends the node's own table
	// decided, with no walk (sendOwn).
	OwnerSendsSelf uint64
	// Riders is the owner sends that joined a walk already under way.
	Riders uint64
	// AppSends is the app payloads sent to a contact (SendApp), first
	// attempts only.
	AppSends uint64
}

// Add accumulates o into c.
func (c *SendCounts) Add(o SendCounts) {
	c.OwnerWalks += o.OwnerWalks
	c.OwnerWalksAtTarget += o.OwnerWalksAtTarget
	c.OwnerWalksExact += o.OwnerWalksExact
	c.OwnerSendsSelf += o.OwnerSendsSelf
	c.Riders += o.Riders
	c.AppSends += o.AppSends
}

// App is the slot for the loop state of the application above the nodes (see
// Node.App).
func (s *Scratch) App() *any { return &s.app }

// Counts reports the scratch's SendCounts.
func (s *Scratch) Counts() SendCounts { return s.counts }

// Freelist bounds. A burst — every node of a booting network running its
// bootstrap lookup at once — allocates past them and the surplus is garbage
// once it drains, instead of staying pinned at the high-water mark. The
// lookup, owner-send, RPC and local-delivery bounds are about twice the most
// records one loop's drive has out at once (DESIGN.md, "Memory ownership"),
// so a warmed loop allocates none of them.
const (
	maxFreeLookups = 32  // a drive has at most 20 lookups in flight on a loop, owner walks included
	maxFreeSends   = 64  // every owner send takes one until its last copy: at --seed 2017 a loop has at most 64 out on share-120 (a repair push to every slot of a column, in one instant) and 6-10 on the other five workloads
	maxFreePending = 128 // a lookup query is an in-flight RPC: at most 60
	maxFreeLocals  = 32  // a key-share drive has at most 16 local deliveries out on a loop, all due in one instant
	maxFreeBufs    = 256 // a dispatch burst's packets plus the custody of the missions in flight
)

// RecordMisses is how many records of each kind a scratch has allocated
// because its list was empty (freelist.List.Misses).
type RecordMisses struct {
	Lookups, Sends, RPCs, Locals uint64
}

// Misses reports the scratch's RecordMisses.
func (s *Scratch) Misses() RecordMisses {
	return RecordMisses{
		Lookups: s.lookups.Misses(),
		Sends:   s.sends.Misses(),
		RPCs:    s.rpcs.Misses(),
		Locals:  s.locals.Misses(),
	}
}

// appSeen is a loop's acked-delivery dedup index: the marks of the most
// recent maxAppSeen deliveries, oldest evicted first. It lives on the loop,
// not the node, so a node that receives one acked app does not buy a table
// of its own.
type appSeen struct {
	marks map[appKey]struct{}
	order []appKey // the marks in arrival order, a ring once full
	next  int      // the oldest mark's index in order once full
}

// appKey identifies one acked app delivery: the receiving node's
// incarnation, the sender and the sender's RPCID.
type appKey struct {
	rpc  uint64
	from ID
	node uint32
}

// maxAppSeen bounds the dedup index of a loop; at the bound the oldest mark
// makes way for the new one.
const maxAppSeen = 1 << 15

// mark records k and reports whether it was already marked.
func (a *appSeen) mark(k appKey) (dup bool) {
	if _, ok := a.marks[k]; ok {
		return true
	}
	if a.marks == nil {
		a.marks = make(map[appKey]struct{})
	}
	if len(a.order) < maxAppSeen {
		a.order = append(a.order, k)
	} else {
		delete(a.marks, a.order[a.next])
		a.order[a.next] = k
		a.next = (a.next + 1) % maxAppSeen
	}
	a.marks[k] = struct{}{}
	return false
}

// defaultBookAddrs bounds the address book of a scratch that was not told its
// population, and each book of a standalone table: a real socket facing a
// flood of forged contacts spills past it instead of growing a book without
// limit.
const defaultBookAddrs = 1 << 16

// NewScratch returns an empty scratch. peers is the number of distinct peers
// its nodes will see when the caller knows it (a simulated population, whose
// nodes keep their IDs and addresses across churn), so the address book can
// hold all of them; zero — or anything under the default — keeps the default
// bound. The ID book admits no ID until SetPopulation names the population.
func NewScratch(peers int) *Scratch {
	return &Scratch{
		books:   books{addrs: addrBook{book[transport.Addr]{max: min(max(peers, defaultBookAddrs), spilled-1)}}},
		lookups: freelist.List[lookupState]{Max: maxFreeLookups},
		sends:   freelist.List[ownerSend]{Max: maxFreeSends},
		rpcs:    freelist.List[pendingRPC]{Max: maxFreePending},
		locals:  freelist.List[localDelivery]{Max: maxFreeLocals},
		bufs:    freelist.List[[]byte]{Max: maxFreeBufs},
	}
}

// SetPopulation gives the loop its network's population before its nodes
// run. The loop's ID book becomes the population's numbering, closed: an ID
// from outside it — a forged contact — spills into its table's spill slots
// and leaves with its entry, so no traffic grows the book and a forged ID
// costs its table a 20-byte slot for as long as its entry lives. A closed
// book is never written, so the loops of one network share the population's
// array and index. The loop's owner walks are counted against it
// (SendCounts.OwnerWalksExact), which changes no decision: no walk reads it.
// A loop never given its population books no ID: a real node's loop holds
// one table, which a book would not save a byte of, and anyone can send it
// new IDs.
func (s *Scratch) SetPopulation(p *Population) {
	if len(s.ids.items) != 0 {
		panic("dht: SetPopulation on a loop that booked IDs")
	}
	s.ids = book[ID]{items: p.sorted, index: p.index, max: len(p.sorted)}
	s.owners = p
}

// books are the two books of a loop, or of a standalone table: the IDs and
// the addresses of the contacts its routing tables keep, and the addresses of
// its lookups' contacts. A table entry holds a handle into each, not 20 bytes
// of ID and a string, so it is 16 bytes with no pointer, and each peer's ID and
// address are kept once per loop however many tables list it.
type books struct {
	ids   book[ID]
	addrs addrBook
}

// newBooks returns empty books that admit at most max values each.
func newBooks(max int) books {
	return books{ids: book[ID]{max: max}, addrs: addrBook{book[transport.Addr]{max: max}}}
}

// book numbers values of one kind — peer IDs or addresses — so that the
// entries that refer to one carry a uint32 handle and hold no pointer the
// collector must scan. It is append-only and admits at most max values; past
// the bound a handle cannot be had, and the entry's owner keeps the value in
// a spill record of its own (Table.spill, lookupState.spill), so nothing is
// dropped and nothing a peer sends grows the book without limit. index is
// read only when a value enters an entry; items is what entries are read
// through.
type book[K comparable] struct {
	items []K // by handle
	index map[K]uint32
	max   int
}

// spilled marks a handle whose value is not in its book: a table entry's ID
// or address is in its table's spill slots, a lookup entry's address at index
// h&^spilled of its lookup's spill list. It bounds the books: no handle
// reaches it.
const spilled = 1 << 31

// handle returns v's handle, adding v to the book when it is new; ok is false
// when v is new and the book is full.
func (b *book[K]) handle(v K) (h uint32, ok bool) {
	if h, ok := b.index[v]; ok {
		return h, true
	}
	return b.add(v)
}

// add books a new value; ok is false when the book is full.
func (b *book[K]) add(v K) (h uint32, ok bool) {
	if len(b.items) >= b.max {
		return 0, false
	}
	if b.index == nil {
		b.index = make(map[K]uint32)
	}
	h = uint32(len(b.items))
	b.items = append(b.items, v)
	b.index[v] = h
	return h, true
}

// addrBook is the book of peer addresses.
type addrBook struct{ book[transport.Addr] }

// handleBytes is handle for an address still in a datagram: the lookup by
// converted bytes allocates nothing, and the string is made only when the
// book adds it.
func (b *addrBook) handleBytes(a []byte) (h uint32, ok bool) {
	if h, ok := b.index[transport.Addr(a)]; ok {
		return h, true
	}
	return b.add(transport.Addr(a))
}
