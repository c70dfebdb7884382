package dht

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"selfemerge/internal/transport"
)

// Contact is a routable peer: identifier plus transport address.
type Contact struct {
	ID   ID
	Addr transport.Addr
}

// bucketEntry is one tracked contact: 16 bytes and no pointer, so the table's
// array of them is memory the garbage collector never scans. The ID and the
// address are handles into the table's books (idOf and addrOf turn them back
// where a contact leaves the table), so a peer's ID is kept once per loop, not
// once more in every table that lists it. lastSeen is UnixNano on the table
// clock rather than a time.Time, whose location pointer the collector would
// scan, and the staleness test only ever needs a subtraction.
type bucketEntry struct {
	id, addr uint32
	lastSeen int64
}

// spillSlots is what a table keeps itself of the entries its books have no
// handle for (a handle is spilled), until the entry leaves the table
// (forget): ids holds each such ID at the slot its id handle names
// (h&^spilled), free the slots free for reuse, and addrs each such address by
// its entry's id handle.
type spillSlots struct {
	ids   []ID
	free  []uint32
	addrs map[uint32]transport.Addr
}

// evictBucket is the ping-evict state of one bucket: a replacement cache of
// newcomers (newest last) waiting for an eviction, and whether the
// at-most-one liveness probe is outstanding. A table makes it at the bucket's
// first full-bucket admission and keeps it, so a naive table, and every
// bucket that never fills, carries none.
type evictBucket struct {
	spare   []bucketEntry
	probing bool
}

// nowFunc is NewTable's clock function as the table's clock.
type nowFunc func() time.Time

func (f nowFunc) Now() time.Time { return f() }

// TablePolicy selects the full-bucket admission policy.
type TablePolicy int

const (
	// TableDefault resolves to the context's default: TablePingEvict for a
	// Node (secure by default), TableNaive for a standalone NewTable.
	TableDefault TablePolicy = iota
	// TablePingEvict is the real Kademlia policy: a newcomer to a full
	// bucket waits in the replacement cache while the least-recently-seen
	// entry is pinged, and is promoted only if that probe times out. A live
	// long-lived peer is never displaced by unverified traffic, which is
	// what makes bucket-poisoning floods ineffective.
	TablePingEvict
	// TableNaive is the historical ping-free variant: a newcomer replaces
	// the least-recently-seen entry as soon as it looks stale on the local
	// clock, with no liveness check. Kept for the adversary experiments
	// (the "undefended" arm of the attack curves) and as the pinned policy
	// of recorded deterministic scenarios.
	TableNaive
)

// String returns the policy's axis label.
func (p TablePolicy) String() string {
	switch p {
	case TablePingEvict:
		return "pingevict"
	case TableNaive:
		return "naive"
	default:
		return "default"
	}
}

// ParseTablePolicy parses an axis label ("pingevict" or "naive").
func ParseTablePolicy(s string) (TablePolicy, error) {
	switch s {
	case "pingevict":
		return TablePingEvict, nil
	case "naive":
		return TableNaive, nil
	}
	return TableDefault, fmt.Errorf("dht: unknown table policy %q (want pingevict or naive)", s)
}

// Table is a Kademlia routing table: IDBits k-buckets of at most K contacts
// each, least-recently-seen first. Observing a known contact refreshes it;
// observing a new contact inserts it, and a full bucket admits newcomers
// per the configured TablePolicy. Policy rationale and the threat model are
// documented in DESIGN.md.
//
// The table is one array: a node in an N-node network fills ~log2(N) of its
// IDBits buckets, a few entries each, so a bucket is not an array of its own
// but a run of the table's, and an empty bucket takes no room at all.
//
// A table belongs to its node and is touched only from the node's dispatch
// context (see Node); it has no lock. A closed node keeps its table, and the
// node Init builds in its place takes it back wiped.
type Table struct {
	self ID
	// pingEvict is the admission policy: TablePingEvict if set, else
	// TableNaive.
	pingEvict  bool
	k          int
	staleAfter time.Duration
	// clock is a Node's sim.Clock, or NewTable's function (nowFunc).
	clock interface{ Now() time.Time }
	// book numbers the IDs and addresses of the table's entries: a Node's
	// are its loop's Scratch's, shared with its lookups; a standalone table
	// makes private ones at its first insert. spill keeps what the books
	// could not; it is made at the first such entry.
	book  *books
	spill *spillSlots
	// evict holds the ping-evict state of the buckets that have had a
	// full-bucket admission, by bucket index; nil until the first.
	evict  map[int]*evictBucket
	pinger func(Contact, func(alive bool))
	// entries holds every live entry, bucket by bucket in ascending index
	// order, least-recently-seen first within a bucket. occupied marks the
	// buckets with live entries, and ends[r] is the end offset in entries of
	// the run of the bucket whose bit has rank r in occupied; the run starts
	// where the previous one ends. The selection scan walks the ~log2(N)
	// occupied buckets directly instead of testing all IDBits lengths per
	// call. ends starts on the inline array, so a table allocates nothing for
	// it until more than inlineBuckets distances are populated.
	entries  []bucketEntry
	ends     []uint16
	occupied bucketSet
	inline   [inlineBuckets]uint16
}

// inlineBuckets is log2 of the largest population the repo aims at (10^6
// nodes): uniformly drawn IDs populate about that many distances, so only a
// table fed adversarially placed IDs outgrows the inline ends.
const inlineBuckets = 20

// firstEntries is the entries array's first allocation, 768 bytes (a malloc
// size class); it doubles from there. A smaller start leaves most
// tables full when a network starts its missions, and they reallocate as
// their nodes keep learning contacts; a larger one spends the memory the
// shared array saves (DESIGN.md, "Memory ownership").
const firstEntries = 48

// maxK is the largest bucket size at which a uint16 end can index a table of
// IDBits full buckets.
const maxK = (1<<16 - 1) / IDBits

// bucketSet is a bitmap over bucket indexes.
type bucketSet [(IDBits + 63) / 64]uint64

func (s *bucketSet) has(idx int) bool { return s[idx>>6]&(1<<(idx&63)) != 0 }

// rank counts the set indexes below idx.
func (s *bucketSet) rank(idx int) int {
	w := idx >> 6
	r := bits.OnesCount64(s[w] & (1<<(idx&63) - 1))
	for i := 0; i < w; i++ {
		r += bits.OnesCount64(s[i])
	}
	return r
}

// run returns bucket idx's rank r among the occupied buckets and its entries,
// the run entries[lo:hi]. An empty bucket has lo == hi, at the offset where
// its run would start, and r is where its end would go.
func (t *Table) run(idx int) (r, lo, hi int) {
	r = t.occupied.rank(idx)
	if r > 0 {
		lo = int(t.ends[r-1])
	}
	hi = lo
	if t.occupied.has(idx) {
		hi = int(t.ends[r])
	}
	return r, lo, hi
}

// insert puts e at offset hi, the end of the run of bucket idx (rank r): the
// array's tail shifts up a slot, and an empty bucket gets its run.
func (t *Table) insert(idx, r, hi int, e bucketEntry) {
	if len(t.entries) == cap(t.entries) {
		grown := make([]bucketEntry, len(t.entries), max(2*cap(t.entries), firstEntries))
		copy(grown, t.entries)
		t.entries = grown
	}
	t.entries = t.entries[:len(t.entries)+1]
	copy(t.entries[hi+1:], t.entries[hi:])
	t.entries[hi] = e
	if !t.occupied.has(idx) {
		t.ends = slices.Insert(t.ends, r, uint16(hi))
		t.occupied[idx>>6] |= 1 << (idx & 63)
	}
	for i := r; i < len(t.ends); i++ {
		t.ends[i]++
	}
}

// cut removes entries[i] of the run entries[lo:] of bucket idx (rank r): the
// array's tail shifts down a slot, and an emptied run loses its end. The copy
// of the last entry that the shift leaves past the slice's end pins nothing:
// an entry holds no pointer.
func (t *Table) cut(idx, r, lo, i int) {
	t.forget(&t.entries[i])
	t.entries = append(t.entries[:i], t.entries[i+1:]...)
	for j := r; j < len(t.ends); j++ {
		t.ends[j]--
	}
	if int(t.ends[r]) == lo {
		t.ends = slices.Delete(t.ends, r, r+1)
		t.occupied[idx>>6] &^= 1 << (idx & 63)
	}
}

// NewTable creates a routing table for the given node. A standalone table
// defaults to TableNaive (no pinger is attached); Node configures
// TablePingEvict wired to its Ping RPC.
func NewTable(self ID, k int, staleAfter time.Duration, now func() time.Time) *Table {
	if now == nil {
		panic("dht: table requires a clock")
	}
	return newTable(self, k, staleAfter, nowFunc(now))
}

// newTable is NewTable on any clock: a Node passes its sim.Clock, which a
// func() time.Time would have to capture in a closure.
func newTable(self ID, k int, staleAfter time.Duration, clock interface{ Now() time.Time }) *Table {
	t := new(Table)
	t.wipe(self, k, staleAfter, clock)
	return t
}

// wipe readies t, a zero table or a closed node's (Node.Init), for a new
// owner: no contact, spill record, policy, pinger or outstanding probe is
// left. What the last owner grew is kept, emptied — its entries array, its
// ends and its replacement caches — because a table's fill depends on the
// population, not on self: a node rebuilt in place fills about as many
// buckets as the one before it.
func (t *Table) wipe(self ID, k int, staleAfter time.Duration, clock interface{ Now() time.Time }) {
	if k < 1 || k > maxK {
		panic(fmt.Sprintf("dht: bucket size %d outside [1, %d]", k, maxK))
	}
	if t.ends == nil {
		t.ends = t.inline[:0]
	}
	t.entries, t.ends = t.entries[:0], t.ends[:0]
	for _, eb := range t.evict {
		eb.spare, eb.probing = eb.spare[:0], false
	}
	t.occupied = bucketSet{}
	t.spill = nil
	t.self, t.k, t.staleAfter, t.clock = self, k, staleAfter, clock
	t.pingEvict, t.pinger = false, nil
}

// SetPolicy selects the full-bucket admission policy. TableDefault resolves
// to TableNaive for a standalone table.
func (t *Table) SetPolicy(p TablePolicy) {
	t.pingEvict = p == TablePingEvict
}

// idOf returns the ID of e, an entry of the table or of its replacement
// caches.
func (t *Table) idOf(e *bucketEntry) ID {
	if e.id&spilled != 0 {
		return t.spill.ids[e.id&^spilled]
	}
	return t.book.ids.items[e.id]
}

// idLanes packs a booked ID into big-endian lanes. Constant-bounds slices of
// the array, not lanes(id[:]): the compiler turns these into three loads,
// where the slice form measured twice as slow on the selection walk.
func idLanes(id *ID) (l0, l1 uint64, l2 uint32) {
	return binary.BigEndian.Uint64(id[0:8]), binary.BigEndian.Uint64(id[8:16]), binary.BigEndian.Uint32(id[16:20])
}

// bookedIDs is the ID book's array, where a booked id handle indexes. A
// spilled handle is past its end: the book's bound is below spilled. The
// scans below read it once per call, and the index test doubles as the
// bounds check.
func (t *Table) bookedIDs() []ID {
	if t.book == nil {
		return nil
	}
	return t.book.ids.items
}

// find returns the index of the entry for id in entries, or -1. The top eight
// bytes settle nearly every identity compare in one word, and the 20-byte
// compare only confirms a match. An ID is compared where the book, or the
// table's spill slots, keep it, so finding an entry hashes nothing.
func (t *Table) find(entries []bucketEntry, id *ID) int {
	l0 := binary.BigEndian.Uint64(id[0:8])
	ids := t.bookedIDs()
	for i := range entries {
		var x *ID
		if h := entries[i].id; int(h) < len(ids) {
			x = &ids[h]
		} else {
			x = &t.spill.ids[h&^spilled]
		}
		if binary.BigEndian.Uint64(x[0:8]) == l0 && *x == *id {
			return i
		}
	}
	return -1
}

// addrOf returns the address of e, an entry of the table or of its
// replacement caches.
func (t *Table) addrOf(e *bucketEntry) transport.Addr {
	if e.addr == spilled {
		return t.spill.addrs[e.id]
	}
	return t.book.addrs.items[e.addr]
}

// contactOf returns e as a Contact.
func (t *Table) contactOf(e *bucketEntry) Contact {
	return Contact{ID: t.idOf(e), Addr: t.addrOf(e)}
}

// entryFor returns an entry for c, seen at now, that is entering the table:
// its ID and address booked, or spilled into the table's own keeping. It and
// repoint are the only places the table writes the books.
func (t *Table) entryFor(c Contact, now int64) bucketEntry {
	if t.book == nil {
		b := newBooks(defaultBookAddrs)
		t.book = &b
	}
	e := bucketEntry{lastSeen: now}
	var ok bool
	if e.id, ok = t.book.ids.handle(c.ID); !ok {
		e.id = t.spillID(c.ID)
	}
	t.pointAt(&e, c.Addr)
	return e
}

// spillID keeps id, which the ID book has no handle for, in a free slot of
// the table's spill, and returns the spilled id handle that names the slot.
// The entries and spares of a table are at most 2·IDBits·k, so a slot index
// stays far below spilled.
func (t *Table) spillID(id ID) uint32 {
	if t.spill == nil {
		t.spill = new(spillSlots)
	}
	sp := t.spill
	if n := len(sp.free); n > 0 {
		slot := sp.free[n-1]
		sp.free = sp.free[:n-1]
		sp.ids[slot] = id
		return spilled | slot
	}
	sp.ids = append(sp.ids, id)
	return spilled | uint32(len(sp.ids)-1)
}

// pointAt sets e's address to addr: its handle, or spilled with addr kept in
// the table's spill. e.id must be set, and any spilled address of e is
// dropped.
func (t *Table) pointAt(e *bucketEntry, addr transport.Addr) {
	if e.addr == spilled {
		delete(t.spill.addrs, e.id)
	}
	h, ok := t.book.addrs.handle(addr)
	if ok {
		e.addr = h
		return
	}
	if t.spill == nil {
		t.spill = new(spillSlots)
	}
	if t.spill.addrs == nil {
		t.spill.addrs = make(map[uint32]transport.Addr)
	}
	e.addr = spilled
	t.spill.addrs[e.id] = addr
}

// forget frees what the table keeps of e, an entry leaving the table.
func (t *Table) forget(e *bucketEntry) {
	if e.addr == spilled {
		delete(t.spill.addrs, e.id)
	}
	if e.id&spilled != 0 {
		t.spill.free = append(t.spill.free, e.id&^spilled)
	}
}

// repoint applies a verified address to e, a tracked entry for c.ID: the
// address book is consulted only when the address really changed.
func (t *Table) repoint(e *bucketEntry, c Contact) {
	if t.addrOf(e) != c.Addr {
		t.pointAt(e, c.Addr)
	}
}

// SetPinger installs the liveness probe TablePingEvict uses: pinger must
// call done exactly once, with alive=false only after a timeout.
func (t *Table) SetPinger(pinger func(Contact, func(alive bool))) {
	t.pinger = pinger
}

// Observe records that a contact was seen alive right now, on the word of
// an unverified inbound datagram. A known ID is refreshed but its tracked
// address is NOT re-pointed: any peer can claim any ID in a forged From, so
// accepting an address change here would let an attacker hijack an existing
// entry's traffic with a single spoofed packet. Address changes require
// ObserveVerified (a reply matched to an RPC this node issued).
func (t *Table) Observe(c Contact) {
	t.observe(c, false)
}

// ObserveVerified records a contact whose (ID, Addr) binding was confirmed
// by a matched RPC reply: the peer answered at that address with the pending
// request's RPCID, which a third party cannot forge blindly. Only verified
// observations may update the tracked address of a known ID.
func (t *Table) ObserveVerified(c Contact) {
	t.observe(c, true)
}

func (t *Table) observe(c Contact, verified bool) {
	idx, ok := t.self.BucketIndex(c.ID)
	if !ok {
		return // never track self
	}
	r, lo, hi := t.run(idx)
	entries := t.entries[lo:hi]
	now := t.clock.Now().UnixNano()
	if i := t.find(entries, &c.ID); i >= 0 {
		if verified {
			t.repoint(&entries[i], c)
		}
		entries[i].lastSeen = now
		// Move to tail (most recently seen).
		entry := entries[i]
		copy(entries[i:], entries[i+1:])
		entries[len(entries)-1] = entry
		return
	}
	if len(entries) < t.k {
		t.insert(idx, r, hi, t.entryFor(c, now))
		return
	}
	// Bucket full: admission is policy-dependent.
	if !t.pingEvict {
		// Naive: replace the least-recently-seen entry if it looks stale on
		// the local clock — no liveness check, so a forged-contact flood can
		// displace live peers (the measured weakness of this policy).
		if t.staleAfter > 0 && now-entries[0].lastSeen > int64(t.staleAfter) {
			t.forget(&entries[0])
			copy(entries, entries[1:])
			entries[len(entries)-1] = t.entryFor(c, now)
		}
		// Otherwise drop the newcomer (Kademlia prefers long-lived peers).
		return
	}
	// Ping-evict: the newcomer waits in the replacement cache while the
	// least-recently-seen live entry is probed. Nothing is evicted on the
	// newcomer's word alone.
	eb := t.evict[idx]
	if eb == nil {
		if t.evict == nil {
			t.evict = make(map[int]*evictBucket)
		}
		eb = &evictBucket{}
		t.evict[idx] = eb
	}
	t.upsertSpare(eb, c, now, verified)
	if !eb.probing && t.pinger != nil {
		// The pinger issues a real RPC. A live peer's pong refreshes it via
		// ObserveVerified (and the newcomer stays spare); a timeout removes it
		// via the RPC failure path, and probeDone promotes from the cache.
		eb.probing = true
		probe := t.contactOf(&entries[0])
		t.pinger(probe, func(alive bool) { t.probeDone(probe.ID, alive) })
	}
}

// upsertSpare inserts or refreshes c's replacement-cache record, newest last,
// capped at k (oldest dropped first).
func (t *Table) upsertSpare(eb *evictBucket, c Contact, now int64, verified bool) {
	if i := t.find(eb.spare, &c.ID); i >= 0 {
		if verified {
			t.repoint(&eb.spare[i], c)
		}
		eb.spare[i].lastSeen = now
		entry := eb.spare[i]
		copy(eb.spare[i:], eb.spare[i+1:])
		eb.spare[len(eb.spare)-1] = entry
		return
	}
	if len(eb.spare) >= t.k {
		t.forget(&eb.spare[0])
		copy(eb.spare, eb.spare[1:])
		eb.spare = eb.spare[:len(eb.spare)-1]
	}
	eb.spare = append(eb.spare, t.entryFor(c, now))
}

// probeDone finishes a liveness probe: the probing slot reopens, and if the
// probed entry died (the timeout path already removed it) the freed room is
// filled from the replacement cache.
func (t *Table) probeDone(id ID, _ bool) {
	idx, ok := t.self.BucketIndex(id)
	if !ok {
		return
	}
	eb := t.evict[idx]
	if eb == nil {
		return
	}
	eb.probing = false
	t.promoteSpares(idx, eb)
}

// promoteSpares moves replacement-cache records (newest first) into free
// slots of bucket idx. eb may be nil: a bucket that never filled has no cache.
func (t *Table) promoteSpares(idx int, eb *evictBucket) {
	if eb == nil {
		return
	}
	r, lo, hi := t.run(idx)
	for ; hi-lo < t.k && len(eb.spare) > 0; hi++ {
		last := len(eb.spare) - 1
		t.insert(idx, r, hi, eb.spare[last])
		eb.spare = eb.spare[:last]
	}
}

// Remove drops a contact (e.g. after an RPC timeout), refilling the freed
// slot from the bucket's replacement cache when one is waiting.
func (t *Table) Remove(id ID) {
	idx, ok := t.self.BucketIndex(id)
	if !ok {
		return
	}
	eb := t.evict[idx]
	r, lo, hi := t.run(idx)
	if i := t.find(t.entries[lo:hi], &id); i >= 0 {
		t.cut(idx, r, lo, lo+i)
		t.promoteSpares(idx, eb)
		return
	}
	// Not live: forget any replacement-cache record too.
	if eb == nil {
		return
	}
	if i := t.find(eb.spare, &id); i >= 0 {
		t.forget(&eb.spare[i])
		eb.spare = append(eb.spare[:i], eb.spare[i+1:]...)
	}
}

// ranked is a lookup shortlist entry, 32 bytes and no pointer: a contact's
// XOR distance from the lookup target, packed into big-endian lanes so that
// ordering two of them is at most three integer compares, its address handle
// (lookupState.addr), and the lookup's two marks. The ID is not stored: it is
// the lanes XOR the target's. Both are turned back into a Contact (contact)
// only where one leaves the lookup.
type ranked struct {
	d0, d1    uint64
	d2        uint32
	addr      uint32
	queried   bool // a query to it was issued (and not given back by a retry)
	requeried bool // its one retry-policy re-query was granted
	answered  bool // it answered a query of this lookup
}

// contact rebuilds the entry's Contact from the target of ls, the lookup it
// belongs to, and its address from the handle.
func (r *ranked) contact(ls *lookupState) Contact {
	t0, t1, t2 := lanes(ls.target[:])
	c := Contact{Addr: ls.addr(r.addr)}
	binary.BigEndian.PutUint64(c.ID[0:8], r.d0^t0)
	binary.BigEndian.PutUint64(c.ID[8:16], r.d1^t1)
	binary.BigEndian.PutUint32(c.ID[16:20], r.d2^t2)
	return c
}

// farther orders candidates by distance, larger first.
func (a ranked) farther(b ranked) bool {
	return lanesFarther(a.d0, a.d1, a.d2, b.d0, b.d1, b.d2)
}

// lanesFarther reports whether packed distance a is larger than packed
// distance b.
func lanesFarther(a0, a1 uint64, a2 uint32, b0, b1 uint64, b2 uint32) bool {
	if a0 != b0 {
		return a0 > b0
	}
	if a1 != b1 {
		return a1 > b1
	}
	return a2 > b2
}

// lanes packs the IDBytes of id — an ID, or its bytes still in a datagram —
// into big-endian lanes; the XOR of two IDs' lanes is their packed distance.
func lanes(id []byte) (l0, l1 uint64, l2 uint32) {
	return binary.BigEndian.Uint64(id), binary.BigEndian.Uint64(id[8:]), binary.BigEndian.Uint32(id[16:])
}

// rankID returns an unmarked entry for id, ranked against target, with no
// address: what finding an entry by its lanes, or marking an ID seen, needs.
func rankID(target, id ID) ranked {
	t0, t1, t2 := lanes(target[:])
	l0, l1, l2 := lanes(id[:])
	return ranked{d0: l0 ^ t0, d1: l1 ^ t1, d2: l2 ^ t2}
}

// Closest returns up to count contacts closest to target under XOR
// distance, nearest first, in a fresh slice.
func (t *Table) Closest(target ID, count int) []Contact {
	return t.AppendClosest(nil, target, count)
}

// AppendClosest appends up to count contacts closest to target under XOR
// distance to dst, nearest first — the allocation-free form for callers that
// recycle a result buffer. The selection lives in selectClosest.
func (t *Table) AppendClosest(dst []Contact, target ID, count int) []Contact {
	out := closestOut{form: asContacts, contacts: dst}
	t.selectClosest(&out, target, count)
	return out.contacts
}

// appendClosestRanked is AppendClosest for the shortlist bootstrap of ls: the
// same contacts in the same order, appended to ls.shortlist as unmarked
// entries that keep the distance lanes the selection computed. An entry's
// handle is the table's own, so ls must share the table's book (a node's
// table and its lookups use the loop's); the address of a spilled entry is
// copied to the spill list of ls.
func (t *Table) appendClosestRanked(ls *lookupState, count int) {
	out := closestOut{form: asRanked, ls: ls}
	t.selectClosest(&out, ls.target, count)
}

// appendClosestWire is the selection for a reply datagram: the same contacts
// as wire records (appendContact) appended to dst, in bucket walk order with
// only the bucket the count cuts sorted (see selectClosest). It also returns
// how many records it appended.
func (t *Table) appendClosestWire(dst []byte, target ID, count int) ([]byte, int) {
	out := closestOut{form: asWire, wire: dst}
	n := t.selectClosest(&out, target, count)
	return out.wire, n
}

// closestOut is where selectClosest puts the contacts it selects: in the
// contacts, the shortlist of ls, or the wire, as form names.
type closestOut struct {
	form     closestForm
	contacts []Contact
	ls       *lookupState
	wire     []byte
}

type closestForm uint8

const (
	asContacts closestForm = iota
	asRanked
	asWire
)

// closestKey stands for one bucket entry while its bucket is put in order:
// the entry's XOR distance from the target as packed lanes, plus its
// position in the bucket.
type closestKey struct {
	d0, d1 uint64
	d2     uint32
	i      uint32
}

// inlineKeys is the bucket size up to which selectClosest orders a bucket on
// its own stack frame; the default K (20) fits, a larger k allocates.
const inlineKeys = 32

// selectClosest is the selection core: it appends the count contacts closest
// to target to out, and returns how many it appended (fewer than count only
// when the table tracks fewer).
//
// The buckets are totally ordered by distance from any target, so nothing is
// compared across buckets. With s = self XOR target, every entry of bucket i
// (first differing from self at bit i) is at a distance that equals s above
// bit i and is flipped at bit i; an entry of a deeper bucket j > i still
// equals s at bit i. Bit i therefore decides the pair: where s has a 1 there,
// all of bucket i is nearer than every deeper bucket; where s has a 0, all of
// it is farther. Nearest-first order is thus the occupied buckets under the
// 1 bits of s by ascending index, then those under the 0 bits by descending
// index. The walk takes whole buckets in that order, orders only inside a
// bucket, and cuts the last one to the n nearest of the count still wanted.
// Distances are unique (distinct IDs), so the sorted forms equal a full sort
// of the table. The wire form skips the ordering of every bucket that goes
// out whole: it holds the same contacts, and no receiver depends on the order
// within a response (DESIGN.md, "Closest-K selection").
func (t *Table) selectClosest(out *closestOut, target ID, count int) int {
	asked := count
	t0, t1, t2 := lanes(target[:])
	s := t.nearSide(target)
	ids := t.bookedIDs()
	var inline [inlineKeys]closestKey
	keys := inline[:]
	if t.k > inlineKeys {
		keys = make([]closestKey, t.k)
	}
	// Sweeps 0..2 take the near side (occupied ∧ s) word by word upward,
	// sweeps 3..5 the far side (occupied ∧ ¬s) downward.
	for sweep := 0; sweep < 2*len(s) && count > 0; sweep++ {
		w, far := sweep, sweep >= len(s)
		if far {
			w = 2*len(s) - 1 - sweep
			s[w] = ^s[w]
		}
		word := t.occupied[w] & s[w]
		for word != 0 && count > 0 {
			bit := bits.TrailingZeros64(word)
			if far {
				bit = 63 - bits.LeadingZeros64(word)
			}
			word &^= 1 << bit
			_, lo, hi := t.run(w<<6 + bit)
			entries := t.entries[lo:hi]
			n := min(len(entries), count)
			count -= n
			if out.form == asWire && n == len(entries) {
				for i := range entries {
					id := t.idOf(&entries[i])
					out.wire = appendContact(out.wire, &id, t.addrOf(&entries[i]))
				}
				continue
			}
			// Insertion sort keeping the n nearest keys: at most k of them,
			// and an entry is copied out once, after its place is known.
			kept := 0
			for i := range entries {
				var l0, l1 uint64
				var l2 uint32
				if h := entries[i].id; int(h) < len(ids) {
					l0, l1, l2 = idLanes(&ids[h])
				} else {
					l0, l1, l2 = idLanes(&t.spill.ids[h&^spilled])
				}
				key := closestKey{d0: l0 ^ t0, d1: l1 ^ t1, d2: l2 ^ t2, i: uint32(i)}
				j := kept
				if kept < n {
					kept++
				} else if j--; !lanesFarther(keys[j].d0, keys[j].d1, keys[j].d2, key.d0, key.d1, key.d2) {
					continue // no nearer than the n kept
				}
				for j > 0 && lanesFarther(keys[j-1].d0, keys[j-1].d1, keys[j-1].d2, key.d0, key.d1, key.d2) {
					keys[j] = keys[j-1]
					j--
				}
				keys[j] = key
			}
			for _, key := range keys[:n] {
				e := &entries[key.i]
				switch out.form {
				case asContacts:
					// Filled in place: a Contact built on the stack and
					// copied in measured a third slower (store forwarding).
					// The ID is the key's lanes XOR the target's, as in
					// ranked.contact: no second read of the book.
					out.contacts = append(out.contacts, Contact{})
					c := &out.contacts[len(out.contacts)-1]
					binary.BigEndian.PutUint64(c.ID[0:8], key.d0^t0)
					binary.BigEndian.PutUint64(c.ID[8:16], key.d1^t1)
					binary.BigEndian.PutUint32(c.ID[16:20], key.d2^t2)
					c.Addr = t.addrOf(e)
				case asRanked:
					ls, h := out.ls, e.addr
					if h == spilled {
						h |= uint32(len(ls.spill))
						ls.spill = append(ls.spill, t.spill.addrs[e.id])
					}
					ls.shortlist = append(ls.shortlist, ranked{d0: key.d0, d1: key.d1, d2: key.d2, addr: h})
				default:
					id := t.idOf(e)
					out.wire = appendContact(out.wire, &id, t.addrOf(e))
				}
			}
		}
	}
	return asked - count
}

// nearSide is self XOR target as a bucketSet: ID bit i, counted from the
// most significant, sits at set position i, so it lines up with the occupied
// bitmap. A contact of bucket i first differs from self at bit i, so it is
// nearer to target than self exactly when bit i is set: the set marks the
// buckets on target's near side (see selectClosest).
func (t *Table) nearSide(target ID) bucketSet {
	t0, t1, t2 := lanes(target[:])
	return bucketSet{
		bits.Reverse64(binary.BigEndian.Uint64(t.self[:]) ^ t0),
		bits.Reverse64(binary.BigEndian.Uint64(t.self[8:]) ^ t1),
		uint64(bits.Reverse32(binary.BigEndian.Uint32(t.self[16:]) ^ t2)),
	}
}

// ranksSelfFirst reports whether no contact of the table is nearer to target
// than self: no occupied bucket lies on target's near side. It is true of an
// empty table.
func (t *Table) ranksSelfFirst(target ID) bool {
	s := t.nearSide(target)
	for w := range s {
		if t.occupied[w]&s[w] != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of tracked contacts.
func (t *Table) Len() int {
	return len(t.entries)
}

// Each calls fn for every tracked contact, bucket order, least-recently-seen
// first within a bucket. fn must not call back into the table; it is a
// diagnostic hook (route audits), not a query path.
func (t *Table) Each(fn func(Contact)) {
	for i := range t.entries {
		fn(t.contactOf(&t.entries[i]))
	}
}

// Contains reports whether the table currently tracks id.
func (t *Table) Contains(id ID) bool {
	idx, ok := t.self.BucketIndex(id)
	if !ok {
		return false
	}
	_, lo, hi := t.run(idx)
	return t.find(t.entries[lo:hi], &id) >= 0
}
