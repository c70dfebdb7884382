package dht

import (
	"selfemerge/internal/freelist"
	"selfemerge/internal/transport"
)

// Scratch is the recycled working memory of every node that shares one
// serial dispatch context — one simulator event loop, or one real node's
// udp.Loop. It owns what a node needs only while it is handling an event and
// that outlives any single node: the receive-path decode Message and address
// interner, and the freelists of lookup states, lookup query records,
// owner-walk records, in-flight RPC records and byte buffers. None of it is
// observable: sharing changes who pays for the memory, never a wire byte or
// an event.
//
// Ownership rule: all nodes handed the same Scratch must have their handlers
// and timers dispatched from one serial context (handlers are delivered from
// scheduled events, never synchronously from a send, so one event loop is
// such a context). Nothing here is guarded; handle panics on re-entry, the
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
	// addrs interns the addresses of the contacts lookups keep (see intern).
	// Entries are never deleted; it stops admitting at maxAddrs, so a flood of
	// unique addresses degrades to plain allocation instead of growing it.
	addrs    map[transport.Addr]transport.Addr
	maxAddrs int

	lookups freelist.List[lookupState]
	queries freelist.List[lookupQuery]
	walks   freelist.List[ownerWalk]
	rpcs    freelist.List[pendingRPC]
	// bufs is the loop's one byte-buffer list: the wire form of every datagram
	// a node sends (free again when Endpoint.Send returns), and — through
	// Node.Bufs — the protocol layer's encoded packets (held until their owner
	// lookup completes) and custody clones (held until the package peels).
	// The buffers mix freely and each grows to the largest use it has served.
	bufs freelist.List[[]byte]
}

// Freelist bounds. A burst — every node of a booting network running its
// bootstrap lookup at once — allocates past them and the surplus is garbage
// once it drains, instead of staying pinned at the high-water mark. The
// bounds sit above the steady concurrency of one loop's missions and churn
// joins, so a warmed loop allocates neither.
const (
	maxFreeLookups = 64
	maxFreeWalks   = 64  // an owner walk is a lookup
	maxFreeQueries = 256 // a lookup query is an in-flight RPC
	maxFreePending = 256
	maxFreeBufs    = 256 // a dispatch burst's packets plus the custody of the missions in flight
)

// defaultInternedAddrs bounds the address interner of a scratch that was not
// told its population: a real socket facing a flood of forged contact
// addresses degrades to plain allocation instead of growing without limit.
const defaultInternedAddrs = 1 << 16

// NewScratch returns an empty scratch. peers is the number of distinct peer
// addresses its nodes will see when the caller knows it (a simulated
// population), so the interner can hold all of them; zero — or anything
// under the default — keeps the default bound.
func NewScratch(peers int) *Scratch {
	return &Scratch{
		addrs:    make(map[transport.Addr]transport.Addr),
		maxAddrs: max(peers, defaultInternedAddrs),
		lookups:  freelist.List[lookupState]{Max: maxFreeLookups},
		queries:  freelist.List[lookupQuery]{Max: maxFreeQueries},
		walks:    freelist.List[ownerWalk]{Max: maxFreeWalks},
		rpcs:     freelist.List[pendingRPC]{Max: maxFreePending},
		bufs:     freelist.List[[]byte]{Max: maxFreeBufs},
	}
}

// intern returns the canonical Addr for raw address bytes (the map lookup by
// converted bytes allocates nothing), remembering it for future datagrams.
func (s *Scratch) intern(b []byte) transport.Addr {
	if a, ok := s.addrs[transport.Addr(b)]; ok {
		return a
	}
	a := transport.Addr(b)
	if len(s.addrs) < s.maxAddrs {
		s.addrs[a] = a
	}
	return a
}
