package dht

import (
	"time"

	"selfemerge/internal/transport"
)

// Lookup performs an iterative FIND_NODE for target and calls cb with the
// up-to-K closest contacts found. The contact slice is only valid for the duration of the callback (it
// aliases a recycled lookup buffer), so copy to retain.
//
// The adapter rides through the lookup's arg slot: func values are
// pointer-shaped, so boxing cb allocates nothing and the lookup machinery
// stays closure-free.
func (n *Node) Lookup(target ID, cb func([]Contact)) {
	n.startLookup(target, lookupFinishContacts, cb).step()
}

func lookupFinishContacts(arg any, contacts []Contact) {
	arg.(func([]Contact))(contacts)
}

// SendBufToOwners routes a payload encoded into a buffer taken from Bufs to
// the replicas nodes closest to key, no earlier than notBefore (Unix
// nanoseconds, the unit of a protocol package's deadline). Iterative lookups
// from different vantage points can disagree on the single closest node when
// routing tables are incomplete, so protocols that must land related packets
// on the same holder send to a small replica set and deduplicate at the
// receiver — the standard Kademlia practice. The local node is itself a
// candidate owner: lookups never return self, so without this a holder that
// owns the key's zone would hand the payload to its neighbor instead of
// keeping it.
//
// The walk resolves the owners now. A send whose instant is ahead leaves at
// it even when the walk is still out — a walk lasts as long as its slowest
// query, about 160 ms on a loss-free fabric but seconds under burst loss — to
// the walk's answer so far, the contacts that have answered it, and the
// walk's end tops up any final owner that answer missed. A send whose
// instant has passed, zero included, leaves when the walk ends, and a walk
// that finds nobody sends nothing. The buffer goes back to the list after
// the send's last copy, so a steady mission send path allocates neither a
// payload nor a record.
//
// A one-replica send that the node's own table decides takes no walk: when
// no table contact is nearer the key than the node, the node is the owner,
// and the send delivers locally at its instant (sendOwn). A node knows its
// own neighbourhood without asking; nearly every churn-repair push is such a
// send. A closed node, an empty table, two or more replicas, a key with a
// contact on its near side, and a walk for the key already under way keep
// the walk.
//
// A walk whose sends each ask for one owner ends as soon as the key's own
// node answers it (lookupState.toTarget): distance 0 cannot be beaten, so
// the rest of the window would not change the answer. A holder's release to
// the receiver, whose key is the receiver's ID, is such a walk.
func (n *Node) SendBufToOwners(key ID, buf *[]byte, replicas int, notBefore int64) {
	s, wk := n.cfg.Scratch, walkKey{key: key, node: n.incarnation}
	if ls := s.ownerWalks[wk]; ls != nil {
		s.counts.Riders++
		ls.attach(buf, replicas, notBefore)
		return
	}
	if replicas <= 1 && !n.closed && n.table.Len() > 0 && n.table.ranksSelfFirst(key) {
		s.counts.OwnerSendsSelf++
		n.sendOwn(buf, notBefore)
		return
	}
	s.counts.OwnerWalks++
	ls := n.startLookup(key, ownersFinish, nil)
	ls.finishArg, ls.toTarget = ls, true
	ls.attach(buf, replicas, notBefore)
	if s.ownerWalks == nil {
		s.ownerWalks = make(map[walkKey]*lookupState)
	}
	s.ownerWalks[wk] = ls
	ls.step()
}

// sendOwn is a one-replica owner send that the node's own table decides: the
// node is its only owner, with no walk. A send whose instant is ahead arms
// it; one whose instant has passed delivers locally now and returns the
// record and the buffer.
func (n *Node) sendOwn(buf *[]byte, notBefore int64) {
	p := n.newSend(buf, 1)
	p.owners = append(p.owners, n.Contact())
	if ahead := notBefore - n.cfg.Clock.Now().UnixNano(); ahead > 0 {
		n.cfg.Clock.ScheduleArg(time.Duration(ahead), sendDue, p)
		return
	}
	sendDue(p)
}

// walkKey indexes an owner walk in flight on its loop: the walking node's
// incarnation and the key, so two nodes' walks for one key never merge.
type walkKey struct {
	key  ID
	node uint32
}

// attach adds an owner send of buf to the owner walk, in a record of the
// loop's. A send whose instant is ahead arms it now, so it leaves at the
// instant whether or not the walk has ended by then, and sends due in one
// instant leave in call order. One whose instant has passed starts with it
// come and no owner reached, so the walk's end sends it to every final owner.
// A send that asks for more than one owner keeps the walk's full window.
func (ls *lookupState) attach(buf *[]byte, replicas int, notBefore int64) {
	n := ls.node
	if replicas > 1 {
		ls.toTarget = false
	}
	p := n.newSend(buf, replicas)
	if ahead := notBefore - n.cfg.Clock.Now().UnixNano(); ahead > 0 {
		p.walk = ls
		n.cfg.Clock.ScheduleArg(time.Duration(ahead), sendDue, p)
	}
	ls.sends = append(ls.sends, p)
}

// newSend takes a record of the loop's for an owner send of buf, with no
// owner and no walk yet.
func (n *Node) newSend(buf *[]byte, replicas int) *ownerSend {
	s := n.cfg.Scratch
	p := s.sends.Get()
	p.node, p.scratch, p.buf, p.owners = n, s, buf, p.inline[:0]
	p.replicas, p.incarnation = max(replicas, 1), n.incarnation
	return p
}

// ownersFinish hands a finished owner walk's sends their owners, each its own
// replicas prefix, in call order. The walk leaves the loop's index first, so
// no later send rides it while its queries drain.
func ownersFinish(v any, closest []Contact) {
	ls := v.(*lookupState)
	n := ls.node
	s := n.cfg.Scratch
	delete(s.ownerWalks, walkKey{key: ls.target, node: n.incarnation})
	// Once for the whole walk: closest aliases the lookup's result buffer,
	// and each send below takes a prefix view of it, never a cut.
	closest = ls.answer(closest)
	if s.owners != nil && len(closest) > 0 && closest[0].ID == s.owners.Closest(ls.target) {
		s.counts.OwnerWalksExact++
	}
	for _, p := range ls.sends {
		p.resolved(closest[:min(len(closest), p.replicas)])
	}
	clear(ls.sends)
	ls.sends = ls.sends[:0]
}

// answer is an owner walk's owner list from its window: the window with the
// node ranked in among it, or nothing for an empty window, whose walk has
// found nobody: a node that is isolated, or alone in its network, keeps no
// payload either, which would only strand it.
func (ls *lookupState) answer(window []Contact) []Contact {
	if len(window) == 0 {
		return nil
	}
	return insertRanked(window, ls.target, ls.node.Contact())
}

// ownerSend is one owner send on its walk: the packet buffer and the owners.
// The walk and the instant each come once, in either order, and walk is set
// until the first of them; a send whose instant had passed when it attached
// starts with it come. A walk that ends first writes its owners here for the
// instant. An instant that comes first sends to the walk's answer so far,
// keeps those owners as the ones reached, and leaves the record to the walk,
// whose end sends to each final owner not reached. Whichever comes second
// returns the record and the buffer. The record keeps the node's
// incarnation, so a node that closed or was built again in place meanwhile
// sends nothing (send), and the scratch it came from, which its node may
// since have left. inline backs owners up to two replicas, every protocol
// caller's count.
type ownerSend struct {
	node        *Node
	scratch     *Scratch
	walk        *lookupState
	owners      []Contact
	inline      [2]Contact
	buf         *[]byte
	replicas    int
	incarnation uint32
}

// sendDue is an owner send's instant. With the walk done it sends to the
// walk's owners and returns the record; with the walk still out it sends to
// the walk's answer so far — the window contacts that have answered it
// (answeredK), with the node ranked in, cut to the send's replicas — and
// leaves the record to the walk. A contact the walk has not heard from gets
// nothing early: it may be dead, or a forger's, whose replies never check out.
func sendDue(v any) {
	p := v.(*ownerSend)
	if ls := p.walk; ls != nil {
		p.walk = nil
		owners := ls.answer(ls.answeredK())
		p.owners = append(p.owners[:0], owners[:min(len(owners), p.replicas)]...)
		p.send(p.owners)
		return
	}
	p.send(p.owners)
	p.release()
}

// resolved hands the send its walk's final owners. Ahead of the instant they
// are kept for it; past it, each owner the instant's send did not reach gets
// the packet now and the record goes back.
func (p *ownerSend) resolved(owners []Contact) {
	if p.walk != nil {
		p.walk = nil
		p.owners = append(p.owners[:0], owners...)
		return
	}
	for j := range owners {
		if !p.reached(owners[j].ID) {
			p.send(owners[j : j+1])
		}
	}
	p.release()
}

// reached reports whether the instant's send went to id.
func (p *ownerSend) reached(id ID) bool {
	for i := range p.owners {
		if p.owners[i].ID == id {
			return true
		}
	}
	return false
}

// send sends the packet to owners — the node itself by local delivery —
// unless the node has closed or been built again since the send attached: a
// package leaves only from the live holder that resolved it, at the instant
// and at the walk's end alike.
func (p *ownerSend) send(owners []Contact) {
	n := p.node
	if n.closed || n.incarnation != p.incarnation {
		return
	}
	for _, c := range owners {
		if c.ID == n.cfg.ID {
			_ = n.deliverLocal(*p.buf)
		} else {
			_ = n.SendApp(c, *p.buf)
		}
	}
}

// release returns the buffer and the record to the loop they came from.
func (p *ownerSend) release() {
	s, buf := p.scratch, p.buf
	clear(p.owners)
	p.owners = p.owners[:0]
	p.node, p.scratch, p.buf = nil, nil, nil
	s.sends.Put(p)
	s.bufs.Put(buf)
}

// insertRanked inserts c into a nearest-first lookup result at its distance
// rank from key, shifting the tail in place: the slice aliases a recycled
// lookup buffer that is ours for the callback's duration, so the shift is
// safe and the usual call allocates nothing. It is how a node counts itself
// among a key's owners — lookups never return self.
func insertRanked(list []Contact, key ID, c Contact) []Contact {
	pos := len(list)
	for i := range list {
		if key.CloserTo(c.ID, list[i].ID) {
			pos = i
			break
		}
	}
	list = append(list, Contact{})
	copy(list[pos+1:], list[pos:])
	list[pos] = c
	return list
}

// deliverLocal hands an application payload to the local node's own OnApp,
// asynchronously, as if it had arrived over the wire. The payload travels
// through a recycled buffer reclaimed after the handler returns, matching the
// transport delivery contract, and the event's argument is a recycled
// localDelivery, so the hand-off allocates nothing on a warm loop.
func (n *Node) deliverLocal(payload []byte) error {
	if n.closed {
		return ErrClosed
	}
	if n.cfg.OnApp == nil {
		return nil
	}
	buf := n.cfg.Scratch.bufs.Get()
	*buf = append((*buf)[:0], payload...)
	d := n.cfg.Scratch.locals.Get()
	d.node, d.buf = n, buf
	n.cfg.Clock.ScheduleArg(0, localDue, d)
	return nil
}

// localDelivery is one payload on its way to its own node's OnApp: the
// argument of a deliverLocal event.
type localDelivery struct {
	node *Node
	buf  *[]byte
}

// localDue is a deliverLocal event. The record goes back to the loop before
// the handler runs, which may deliver locally again; the buffer after it.
func localDue(v any) {
	d := v.(*localDelivery)
	n, buf := d.node, d.buf
	d.node, d.buf = nil, nil
	s := n.cfg.Scratch
	s.locals.Put(d)
	n.cfg.OnApp.HandleApp(n.Contact(), *buf)
	s.bufs.Put(buf)
}

// lookupState drives one iterative lookup. States recycle through the node's
// Scratch: the set and slices survive between lookups (cleared, capacity
// kept), so a steady mission workload runs its lookups allocation-free.
//
// An owner walk (SendBufToOwners) is a lookup whose sends are every owner
// send waiting on its answer, in call order. A node resolves one key at most
// once at a time — a send that finds a walk for its key already under way
// rides it instead of starting an identical one (a forwarding holder hands
// the same next slot several packets in one instant, and the walks would
// query the same K contacts from the same table). The loop indexes the walks
// in flight (Scratch.ownerWalks) until they finish.
type lookupState struct {
	node      *Node
	target    ID
	finishCb  func(any, []Contact)
	finishArg any

	// shortlist is every contact the lookup still counts, one flat entry
	// each: the window — the min(settled, K) nearest, in ascending distance
	// order — then the reserve, every farther entry in no order. Entries
	// from settled on were appended by the last response and are placed by
	// sortShortlist.
	shortlist []ranked
	settled   int
	// spill holds the addresses of the entries that got no handle in the
	// loop's book because it was full (see addr).
	spill  []transport.Addr
	result []Contact
	// seen is every distance the lookup ever listed: it also remembers self
	// and the contacts failover removed, so neither comes back.
	seen     distSet
	inflight int
	// rejoin marks a rejoin's self-lookup (Rejoin), which also finishes once
	// barren reaches alpha: that many answered replies in a row that added no
	// contact to the shortlist. A reply that adds one resets it; a failed
	// query counts neither way.
	rejoin bool
	barren int
	// toTarget marks an owner walk whose every send asks for one owner
	// (SendBufToOwners), which also finishes once its window's nearest entry
	// is the target itself and has answered: no contact can be nearer.
	toTarget bool
	// finished is set when the walk has called back. A walk that finishes
	// with queries still out asks nobody more and only drains them.
	finished bool
	// sends is an owner walk's sends until it finishes (ownersFinish).
	sends []*ownerSend
}

// release returns a drained state (finished, no queries in flight) to its
// node's scratch. The set and slices keep their capacity for the next
// lookup on the same loop, across garbage collections.
func (ls *lookupState) release() {
	s := ls.node.cfg.Scratch
	ls.seen.reset()
	ls.shortlist = ls.shortlist[:0]
	ls.settled = 0
	clear(ls.spill)
	ls.spill = ls.spill[:0]
	ls.result = ls.result[:0]
	ls.rejoin, ls.barren, ls.toTarget, ls.finished = false, 0, false, false
	ls.node = nil
	ls.finishCb = nil
	ls.finishArg = nil
	s.lookups.Put(ls)
}

// handle returns the address handle of a new shortlist entry, from its
// address bytes still on the wire: the loop's book's, or past its bound
// spilled, indexing the address's copy in the spill list.
func (ls *lookupState) handle(addr []byte) uint32 {
	if h, ok := ls.node.cfg.Scratch.addrs.handleBytes(addr); ok {
		return h
	}
	ls.spill = append(ls.spill, transport.Addr(addr))
	return spilled | uint32(len(ls.spill)-1)
}

// addr turns a shortlist entry's handle back into its address.
func (ls *lookupState) addr(h uint32) transport.Addr {
	if h&spilled != 0 {
		return ls.spill[h&^spilled]
	}
	return ls.node.cfg.Scratch.addrs.items[h]
}

// distSet is an open-addressing membership set over packed XOR-distance
// lanes. For a fixed lookup target, ID ↔ distance is a bijection, so
// distance membership is exactly ID membership — and because IDs are
// uniform, d0 doubles as a ready-made hash: each operation is a mask and a
// short probe, with none of the key hashing a map pays (as a map: +26%
// cpu_ms_per_mission on steady-120 and boot-2k; DESIGN.md, "What earns a
// bespoke structure"). Nothing is ever deleted: a lookup only adds.
type distSet struct {
	slots []distSlot // power-of-two length
	used  int
}

type distSlot struct {
	d0, d1 uint64
	d2     uint32
	full   bool
}

func (s *distSet) reset() {
	clear(s.slots)
	s.used = 0
}

func (s *distSet) grow() {
	old := s.slots
	size := 2 * len(old)
	if size == 0 {
		size = 64
	}
	s.slots = make([]distSlot, size)
	mask := size - 1
	for i := range old {
		if !old[i].full {
			continue
		}
		j := int(old[i].d0) & mask
		for s.slots[j].full {
			j = (j + 1) & mask
		}
		s.slots[j] = old[i]
	}
}

// add inserts the distance and reports whether it was newly added.
func (s *distSet) add(d0, d1 uint64, d2 uint32) bool {
	if 4*(s.used+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	i := int(d0) & mask
	for {
		sl := &s.slots[i]
		if !sl.full {
			*sl = distSlot{d0: d0, d1: d1, d2: d2, full: true}
			s.used++
			return true
		}
		if sl.d0 == d0 && sl.d1 == d1 && sl.d2 == d2 {
			return false
		}
		i = (i + 1) & mask
	}
}

// startLookup readies a lookup for its first step, which the caller takes.
func (n *Node) startLookup(target ID, cb func(any, []Contact), arg any) *lookupState {
	ls := n.cfg.Scratch.lookups.Get()
	ls.node = n
	ls.target = target
	ls.finishCb = cb
	ls.finishArg = arg
	self := rankID(target, n.cfg.ID)
	ls.seen.add(self.d0, self.d1, self.d2)
	// The bootstrap selection arrives nearest-first and at most K long: it
	// starts out as the settled window. A closed node's lookup starts from
	// nothing: its table went to the loop at Close.
	if !n.closed {
		n.table.appendClosestRanked(ls, bucketK)
	}
	ls.settled = len(ls.shortlist)
	for i := range ls.shortlist {
		r := &ls.shortlist[i]
		ls.seen.add(r.d0, r.d1, r.d2)
	}
	return ls
}

// step issues queries up to the alpha limit and detects termination. A walk
// finishes when it has nothing left to ask and nothing in flight; a rejoin's
// also once alpha answered replies in a row have taught it nothing, and a
// one-owner walk's once the target itself has answered, whatever is still
// out. Its state is released only once nothing is in flight, so no response
// ever arrives for a released state: a walk that finished early drains its
// queries first (onResponse), and their replies still reach the table
// through settle.
func (ls *lookupState) step() {
	ls.sortShortlist()
	if ls.rejoin && ls.barren >= alpha {
		ls.finish()
		return
	}
	if ls.toTarget && ls.targetAnswered() {
		ls.node.cfg.Scratch.counts.OwnerWalksAtTarget++
		ls.finish()
		return
	}
	// Query the unqueried candidates within the K closest known (the standard
	// Kademlia termination window), up to the alpha parallelism limit.
	window := ls.shortlist[:min(len(ls.shortlist), bucketK)]
	for i := 0; i < len(window) && ls.inflight < alpha; i++ {
		r := &window[i]
		if r.queried {
			continue
		}
		r.queried = true
		ls.inflight++
		ls.node.requestArg(r.contact(ls), Message{Kind: KindFindNode, Target: ls.target}, lookupReply, ls)
	}
	if ls.inflight == 0 {
		// Nothing left to ask and nothing outstanding.
		ls.finish()
	}
}

// targetAnswered reports whether the window's nearest entry is the target
// itself, at distance 0 in all three lanes, and has answered the walk.
func (ls *lookupState) targetAnswered() bool {
	if len(ls.shortlist) == 0 {
		return false
	}
	r := &ls.shortlist[0]
	return r.answered && r.d0 == 0 && r.d1 == 0 && r.d2 == 0
}

// finish calls the walk back with its window, once, and releases the state
// unless queries are still out, whose drain then releases it.
func (ls *lookupState) finish() {
	ls.finished = true
	ls.finishCb(ls.finishArg, ls.closestK())
	if ls.inflight == 0 {
		ls.release()
	}
}

// lookupReply is a lookup query's RPC callback: the state rides the RPC's
// arg slot and the RPC record keeps the ID it asked, so a query costs no
// record and no closure of its own.
func lookupReply(v any, from ID, resp *Message, err error) {
	v.(*lookupState).onResponse(from, resp, err)
}

// onResponse folds one query's outcome into the lookup. resp is the receive
// path's scratch Message (nil when err is set), valid for the call only.
func (ls *lookupState) onResponse(from ID, resp *Message, err error) {
	ls.inflight--
	if ls.finished {
		// The drain of a walk that finished early: the reply has reached the
		// table already (settle), and the walk asks nobody more.
		if ls.inflight == 0 {
			ls.release()
		}
		return
	}
	// Find the queried entry by its lanes (likely in the window, scanned first).
	d := rankID(ls.target, from)
	for i := range ls.shortlist {
		r := &ls.shortlist[i]
		if r.d0 != d.d0 || r.d1 != d.d1 || r.d2 != d.d2 {
			continue
		}
		switch {
		case err == nil:
			r.answered = true
		case ls.node.Retrying() && !r.requeried:
			// Re-query before giving up the slot: a retry-hardened lookup
			// gives a timed-out contact one more full RPC (with its own
			// retries) before excluding it from the owner set — correlated
			// faults make a single timeout weak evidence of death. Clearing
			// the queried mark puts the contact back in step's candidate
			// window; the requeried mark makes the second failure final.
			r.queried, r.requeried = false, true
		default:
			// Failover: an unresponsive contact (dead, churned out, or
			// down) is dropped from the shortlist so the final owner set
			// never includes it — the lookup routes around the failure to
			// the next-closest live node. The routing table penalty happens
			// in request's timeout path.
			ls.remove(i)
		}
		break
	}
	if err == nil {
		// The contacts are still on the wire, and most of them this lookup
		// has already seen: rank and probe each record where it lies, and pay
		// for an entry — address handle, distance lanes — only when it is
		// new. So the bounded book admits just the addresses of contacts some
		// lookup kept, not whatever a response chose to list.
		t0, t1, t2 := lanes(ls.target[:])
		listed := len(ls.shortlist)
		for region := resp.contacts.region; len(region) > 0; {
			id, addr, rest, _ := nextContact(region)
			region = rest
			d0, d1, d2 := lanes(id)
			d0, d1, d2 = d0^t0, d1^t1, d2^t2
			if ls.seen.add(d0, d1, d2) {
				ls.shortlist = append(ls.shortlist, ranked{d0: d0, d1: d1, d2: d2, addr: ls.handle(addr)})
			}
		}
		if len(ls.shortlist) > listed {
			ls.barren = 0
		} else {
			ls.barren++
		}
	}
	ls.step()
}

// closestK returns the final result set in the state's pooled result buffer
// — valid until the state is released, i.e. for the duration of the finish
// callback.
func (ls *lookupState) closestK() []Contact { return ls.window(false) }

// answeredK is the walk's answer so far, while it is still out: the window's
// contacts that have answered it, nearest-first, in the result buffer. It
// never counts a contact the walk has not heard from — one still to be asked,
// or one whose replies do not check out (a forger's). A finished walk's window
// has answered whole (a query that failed for good removed its entry), so
// there it is closestK.
func (ls *lookupState) answeredK() []Contact { return ls.window(true) }

// window copies the window's contacts, or only those that have answered, into
// the result buffer.
func (ls *lookupState) window(answered bool) []Contact {
	// The window is the result: the shortlist holds every contact ever seen,
	// and copying hundreds of entries to keep K showed up in the 100k-node
	// profiles.
	sl := ls.shortlist[:min(len(ls.shortlist), bucketK)]
	out := ls.result[:0]
	for i := range sl {
		if sl[i].answered || !answered {
			out = append(out, sl[i].contact(ls))
		}
	}
	ls.result = out
	return out
}

// sortShortlist places the entries appended since it last ran. Into a window
// short of K (the reserve is then empty) an entry is inserted at its rank;
// into a full one only if it beats the K-th, which it evicts to the reserve
// in its stead. Otherwise the entry stays where it landed, in the reserve.
// Entries carry their packed distance lanes, so each comparison is at most
// three integer compares, and the reserve — most of a long lookup's
// shortlist — is never ordered. Distances are unique in the shortlist
// (distinct IDs), so the window is exactly a full sort's first K.
func (ls *lookupState) sortShortlist() {
	sl := ls.shortlist
	for i := ls.settled; i < len(sl); i++ {
		e, j := sl[i], i
		if i >= bucketK {
			if !sl[bucketK-1].farther(e) {
				continue
			}
			sl[i], j = sl[bucketK-1], bucketK-1
		}
		for j > 0 && sl[j-1].farther(e) {
			sl[j] = sl[j-1]
			j--
		}
		sl[j] = e
	}
	ls.settled = len(sl)
}

// remove drops entry i: the last entry takes its place, and everything from i
// on is left for the next sortShortlist to place again. For a window entry
// that pass is the promotion of the reserve's nearest: one compare per
// reserve entry, on the failure path only. The copy left in the vacated slot
// pins nothing: an entry holds no pointer.
func (ls *lookupState) remove(i int) {
	last := len(ls.shortlist) - 1
	ls.shortlist[i] = ls.shortlist[last]
	ls.shortlist = ls.shortlist[:last]
	ls.settled = min(ls.settled, i)
}
