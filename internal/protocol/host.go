package protocol

import (
	"bytes"
	"cmp"
	"slices"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/sim"
)

// Reporter receives a copy of every packet a compromised holder observes
// (the adversary's collection channel). Implemented by
// adversary.Collector.
type Reporter interface {
	Report(now time.Time, from dht.ID, pkt Packet)
}

// HostConfig configures one node's protocol runtime.
type HostConfig struct {
	// Clock drives hold timers. Required.
	Clock sim.Clock
	// Malicious marks the node as adversary-controlled: every packet it
	// sees is reported to Reporter, and if Drop is set it discards
	// everything instead of forwarding (the drop attack).
	Malicious bool
	// Drop activates the drop attack on malicious nodes.
	Drop bool
	// Reporter collects intelligence from malicious nodes.
	Reporter Reporter
	// OnSecret fires when a PkSecret reaches this node (the receiver role).
	OnSecret func(mission MissionID, secret []byte)
	// Replicas is how many closest nodes receive each forwarded packet
	// (default 2). Scenario runs that cross-validate against the Monte
	// Carlo model use 1 so every holder slot maps to one physical node.
	Replicas int
	// Repair enables protocol-level churn repair: key grants carrying a
	// column width and holding period are periodically re-pushed to the
	// current owners of their column's slots, so replacements of dead
	// holders regain the layer key from a surviving custodian — the repair
	// process of Section II-C that the Monte Carlo model assumes. The key
	// share scheme repairs its just-in-time material the same way: column-1
	// key grants refresh through this path, and scattered Shamir shares are
	// re-granted to same-zone replacement custodians once per holding
	// period (scheduleShareRefresh).
	Repair bool
	// Retry hardens the repair pushes against message loss: every grant or
	// share re-push tick fires a second identical push half a refresh
	// margin later (still inside the period it repairs). The pushes are
	// idempotent — receivers dedup by mission coordinates — so the second
	// copy only matters when the first was eaten by a fault. Wired from the
	// network-level retry knob alongside the DHT RetryPolicy.
	Retry bool
}

// Host is the holder-side protocol engine attached to one DHT node. It
// buffers packages and key material per mission, peels onion layers as the
// needed keys become available, and forwards on the hold schedule. It runs
// on its node's dispatch context (see dht.Node): HandleApp and the hold and
// repair timers are that loop's events, so custody is not locked.
type Host struct {
	cfg  HostConfig
	node *dht.Node

	// missions is nil until the first write (state): a churn replacement
	// that never holds custody pays nothing for it.
	missions map[MissionID]*missionState
	// advance's deterministic-iteration sort scratch, reused across calls.
	refScratch []Ref
}

// missionState is one mission's custody at one holder, one table per kind of
// material, each keyed by the Ref the material lives at. The maps are nil
// until first written through put (nil map reads are free): a typical holder
// touches only one or two of them per mission, so eager maps were most of the
// mission path's protocol allocations.
type missionState struct {
	// Layer keys, granted or oracle-confirmed: K_c of the multipath schemes
	// and CK_c column-wide, SK_{c,s} per slot.
	keys map[Ref]seal.Key
	// Shamir shares collected towards the key at the same Ref.
	shares map[Ref][]shamir.Share
	// Share collections with an armed churn-repair refresh (one per holding
	// period, see scheduleShareRefresh).
	repair map[Ref]bool
	// Onion custody: the main onion column-wide (joint/share copies are
	// deduped), slot onions per slot.
	sealed map[Ref]*heldPackage

	// Central-scheme custody.
	central *heldPackage

	// sealers caches one decrypt handle per confirmed layer key so the
	// AES-GCM key schedule is paid once per (mission, key) rather than once
	// per peel attempt. Only granted or oracle-confirmed keys land here;
	// garbage interpolation candidates never do.
	sealers map[seal.Key]*seal.Sealer
}

// sealerFor returns the mission's cached decrypt handle for key,
// constructing and caching it on first use.
func (ms *missionState) sealerFor(key seal.Key) *seal.Sealer {
	if s, ok := ms.sealers[key]; ok {
		return s
	}
	s, err := seal.NewSealer(key)
	if err != nil {
		return nil
	}
	put(&ms.sealers, key, s)
	return s
}

// put writes (*m)[k] = v, making the map on its first write.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V, 2)
	}
	(*m)[k] = v
}

// heldPackage is a package waiting on its keys and/or its hold timer.
type heldPackage struct {
	pkt    Packet
	peeled *onion.Layer
	due    bool
	done   bool
	// buf is the custody clone backing pkt.Data, taken from the node's loop;
	// it goes back there once the sealed bytes are dead (see releaseCustody).
	buf *[]byte
	// triedShares memoizes the size of the share collection the last failed
	// recovery attempt ran against, so advance() re-enumerates candidate
	// keys only after new share material arrives.
	triedShares int
}

// cloneCustody copies data into a buffer of the node's loop: a packet's
// delivery buffer is recycled when the handler returns, so taking custody
// copies the bytes. A holder's custody therefore lives in exactly one place —
// a buffer the loop owns, referenced by one heldPackage — until
// releaseCustody hands it back.
func (h *Host) cloneCustody(data []byte) *[]byte {
	buf := h.node.Bufs().Get()
	*buf = append((*buf)[:0], data...)
	return buf
}

// releaseCustody returns the custody clone to the loop once the sealed bytes
// are dead: after a successful peel the layer owns fresh plaintext, and a
// fired central hold has already encoded its send. A steady mission workload
// thus re-uses a small set of clone buffers instead of allocating one per
// custody.
func (h *Host) releaseCustody(hp *heldPackage) {
	if hp.buf == nil {
		return
	}
	hp.pkt.Data = nil
	h.node.Bufs().Put(hp.buf)
	hp.buf = nil
}

// NewHost creates a host; call Attach to bind it to its node after the
// node is constructed (the node's OnApp must be h.HandleApp).
func NewHost(cfg HostConfig) *Host {
	return &Host{cfg: cfg}
}

// Attach binds the host to its DHT node.
func (h *Host) Attach(node *dht.Node) { h.node = node }

// HandleApp is the dht.Config.OnApp entry point. The payload follows the
// transport delivery contract — it is valid only for the duration of the
// call (it usually aliases a recycled delivery buffer) — so every path
// below that keeps packet bytes beyond this call clones them first.
func (h *Host) HandleApp(from dht.Contact, payload []byte) {
	pkt, err := DecodePacket(payload)
	if err != nil {
		return
	}
	if h.cfg.Malicious && h.cfg.Reporter != nil {
		h.cfg.Reporter.Report(h.cfg.Clock.Now(), from.ID, pkt)
	}
	if h.cfg.Malicious && h.cfg.Drop && pkt.Kind != PkKeyGrant {
		// Drop attack: swallow every package. Key grants are still accepted
		// (and re-granted during repair) — the attack targets the packages,
		// and refusing routine key maintenance would expose the Sybil.
		return
	}

	switch pkt.Kind {
	case PkSecret:
		if h.cfg.OnSecret != nil {
			h.cfg.OnSecret(pkt.Mission, pkt.Data)
		}
		return
	case PkCentral:
		h.onCentral(pkt)
	case PkKeyGrant:
		h.onKeyGrant(pkt)
	case PkMainOnion, PkSlotOnion:
		h.onOnion(pkt)
	case PkColShare, PkSlotShare:
		h.onShare(pkt)
	}
}

func (h *Host) state(id MissionID) *missionState {
	ms, ok := h.missions[id]
	if !ok {
		ms = &missionState{}
		put(&h.missions, id, ms)
	}
	return ms
}

func (h *Host) onCentral(pkt Packet) {
	ms := h.state(pkt.Mission)
	if ms.central != nil {
		return // replica already in custody: no clone for routine duplicates
	}
	buf := h.cloneCustody(pkt.Data) // custody outlives the delivery buffer
	pkt.Data = *buf
	hp := &heldPackage{pkt: pkt, buf: buf}
	ms.central = hp
	h.scheduleHold(hp, func() {
		sendPacket(h.node, pkt.Target, Packet{
			Mission: pkt.Mission,
			Kind:    PkSecret,
			Data:    pkt.Data,
		}, 1)
		// sendPacket encodes synchronously; the custody bytes are dead.
		h.releaseCustody(hp)
	})
}

func (h *Host) onKeyGrant(pkt Packet) {
	key, err := seal.KeyFromBytes(pkt.Data)
	if err != nil {
		return
	}
	ms, ref := h.state(pkt.Mission), pkt.Ref()
	if _, dup := ms.keys[ref]; !dup {
		put(&ms.keys, ref, key)
		// The refresh loop re-encodes the grant for the rest of its life, so
		// it gets its own copy of the key bytes (the inbound Data aliases a
		// recycled delivery buffer).
		pkt.Data = key.Bytes()
		h.scheduleGrantRefresh(pkt)
	}
	h.advance(pkt.Mission)
}

// scheduleGrantRefresh arms the custody-refresh loop for a newly received
// key grant: at the end of every holding period, while the key is still
// needed (before the grant's HoldUntil), the custodian re-pushes the grant
// to the current owners of its column's slots. A holder that churned out is
// thereby replaced by a fresh node that receives the layer key from this
// surviving custodian — the once-per-period repair of Section II-C. Dead
// custodians do not refresh (a tick on a closed node returns without pushing
// or re-arming), so a column whose every custodian dies within one period
// loses its key, as the Monte Carlo model prescribes.
func (h *Host) scheduleGrantRefresh(pkt Packet) {
	if !h.cfg.Repair || pkt.Step <= 0 || pkt.Width == 0 {
		return
	}
	// Fire slightly before each period boundary (1/16 of a holding period
	// early): a replacement then regains the key before the next onion hop
	// arrives, and the re-grant exposure lands strictly inside the waiting
	// period it repairs — the window Equation (1)'s release-ahead
	// bookkeeping (and the Monte Carlo engine) attributes it to.
	//
	// Multipath grants stop refreshing at the boundary before their
	// column's onion arrives: repairing storage periods only is what the
	// Monte Carlo replacement-draw bookkeeping models. The share scheme's
	// direct column-1 grants live a single period — custody and carry
	// coincide — so their one refresh fires inside it, just before the
	// forward deadline.
	margin := time.Duration(pkt.Step / 16)
	deadline := pkt.HoldUntil - int64(margin)
	if pkt.direct() {
		deadline = pkt.HoldUntil
	}
	push := func() {
		if !h.node.Closed() {
			h.repush(pkt, pkt.Data)
		}
	}
	var tick func()
	tick = func() {
		if h.node.Closed() || h.cfg.Clock.Now().UnixNano() >= deadline {
			return
		}
		push()
		if h.cfg.Retry {
			// Retry-hardened repair: one identical backup push half a margin
			// later — still half a margin before the boundary, so the
			// exposure stays inside the period — covering a first push eaten
			// whole by a burst or partition window.
			h.cfg.Clock.Schedule(margin/2, push)
		}
		h.cfg.Clock.Schedule(time.Duration(pkt.Step), tick)
	}
	h.cfg.Clock.Schedule(time.Duration(pkt.Step)-margin, tick)
}

// replicas returns the forwarding replica count.
func (h *Host) replicas() int {
	if h.cfg.Replicas > 0 {
		return h.cfg.Replicas
	}
	return holderReplicas
}

func (h *Host) onOnion(pkt Packet) {
	ref := pkt.Ref()
	ms := h.state(pkt.Mission)
	if _, dup := ms.sealed[ref]; dup {
		return // replica already in custody (joint fan-in), no clone paid
	}
	buf := h.cloneCustody(pkt.Data) // custody outlives the delivery buffer
	pkt.Data = *buf
	hp := &heldPackage{pkt: pkt, buf: buf}
	put(&ms.sealed, ref, hp)

	h.scheduleHold(hp, func() { h.advance(pkt.Mission) })
	h.advance(pkt.Mission)
}

func (h *Host) onShare(pkt Packet) {
	x, data, err := ParseShare(pkt.Data)
	if err != nil {
		return
	}
	ref := pkt.Ref()
	ms := h.state(pkt.Mission)
	merged, fresh := addShare(ms.shares[ref], x, data)
	if fresh {
		put(&ms.shares, ref, merged)
	}
	if fresh && h.repairableShare(pkt) && !ms.repair[ref] {
		put(&ms.repair, ref, true)
		h.scheduleShareRefresh(pkt)
	}
	h.advance(pkt.Mission)
}

// addShare merges one received share into the collection. Only exact
// duplicates (same X, same payload) are dropped: a conflicting payload for
// an already-seen X is kept as an additional variant, so a corrupt or stale
// early arrival cannot shadow the honest share — the subset recovery of
// shareKeyCandidates picks whichever variants the onion-layer oracle
// validates. Inserted share data is cloned: the inbound bytes alias a
// recycled delivery buffer (duplicates never pay the copy).
func addShare(shares []shamir.Share, x uint8, data []byte) ([]shamir.Share, bool) {
	for _, s := range shares {
		if s.X == x && bytes.Equal(s.Data, data) {
			return shares, false
		}
	}
	return append(shares, shamir.Share{X: x, Data: append([]byte(nil), data...)}), true
}

// repairableShare reports whether a received share participates in churn
// repair: the host repairs, the packet carries its holding period, and the
// share is still ahead of its forward deadline.
func (h *Host) repairableShare(pkt Packet) bool {
	return h.cfg.Repair && pkt.Step > 0 && pkt.HoldUntil > h.cfg.Clock.Now().UnixNano()
}

// scheduleShareRefresh arms the just-in-time share repair for a column (or
// slot) whose first share just arrived: once per holding period — which for
// shares, living exactly one period between scatter and consumption, means
// once, slightly before the forward deadline — the custodian re-pushes every
// share it holds to the current owners of the column's slots. A same-zone
// replacement that took over a died custodian's slot mid-period thereby
// regains the key material from a surviving sibling (column-key shares
// fan out to every carrier, so any survivor can repair the whole column),
// mirroring the multipath schemes' column-key re-grant of Section II-C. The
// packages themselves (slot onions, the main onion copy) are single-custody
// and die with their holder — repair restores shares, not onions — so the
// delivery model gains no repair term; the margin (1/16 of a holding period)
// keeps the re-grant exposure strictly inside the period it repairs.
func (h *Host) scheduleShareRefresh(pkt Packet) {
	margin := time.Duration(pkt.Step / 16)
	delay := time.Duration(pkt.HoldUntil-h.cfg.Clock.Now().UnixNano()) - margin
	if delay <= 0 {
		return // received during the repair window itself (a re-grant)
	}
	// The repair tick re-encodes from the held share collection, never from
	// the triggering packet's payload — drop the reference so the captured
	// packet does not pin the recycled delivery buffer.
	pkt.Data = nil
	h.cfg.Clock.Schedule(delay, func() { h.regrantShares(pkt) })
	if h.cfg.Retry {
		// Retry-hardened repair: a second regrant half a margin later (still
		// before the forward deadline). regrantShares re-reads the held share
		// collection each time, so the backup tick is idempotent — it only
		// changes anything when the first tick's pushes were lost.
		h.cfg.Clock.Schedule(delay+margin/2, func() { h.regrantShares(pkt) })
	}
}

// regrantShares is one share-repair tick: re-push the shares currently held
// at the packet's Ref to the current owners of the slots it repairs.
func (h *Host) regrantShares(pkt Packet) {
	if h.node.Closed() {
		return
	}
	var blobs [][]byte
	if ms, ok := h.missions[pkt.Mission]; ok {
		for _, sh := range ms.shares[pkt.Ref()] {
			blobs = append(blobs, AppendEncodeShareBlob(nil, sh.X, sh.Data))
		}
	}
	h.repush(pkt, blobs...)
}

// repush is one repair push of the material pkt carries, once per payload,
// to the current owners of the slots it repairs: column-wide material
// carrying its column's width goes to every slot of the column (any surviving
// custodian repairs the whole column); slot material is per-carrier, so only
// its own slot can be repaired.
func (h *Host) repush(pkt Packet, payloads ...[]byte) {
	first, end := int(pkt.Slot), int(pkt.Slot)+1
	if pkt.Ref().Slot == ColumnWide && pkt.Width > 1 {
		first, end = 0, int(pkt.Width)
	}
	for s := first; s < end; s++ {
		pkt.Slot = uint16(s)
		for _, data := range payloads {
			pkt.Data = data
			sendPacket(h.node, SlotID(pkt.Mission, int(pkt.Column), s), pkt, h.replicas())
		}
	}
}

// ShareInventory reports how many distinct column-key and slot-key share
// coordinates the host currently holds for one mission column/slot —
// conflicting variants of one coordinate count once. Exposed for tests and
// churn-repair observability.
func (h *Host) ShareInventory(mission MissionID, column, slot int) (ofColumnKey, ofSlotKey int) {
	ms, ok := h.missions[mission]
	if !ok {
		return 0, 0
	}
	distinct := func(shares []shamir.Share) int {
		seen := make(map[uint8]bool, len(shares))
		for _, s := range shares {
			seen[s.X] = true
		}
		return len(seen)
	}
	return distinct(ms.shares[Ref{int32(column), ColumnWide}]), distinct(ms.shares[Ref{int32(column), int32(slot)}])
}

// scheduleHold arms the package's hold timer; a hold is never cancelled, but
// one that comes due on a closed node does nothing: a custodian that churned
// out neither peels nor forwards, and every send it issued would only fail.
func (h *Host) scheduleHold(hp *heldPackage, fire func()) {
	delay := time.Duration(hp.pkt.HoldUntil - h.cfg.Clock.Now().UnixNano())
	h.cfg.Clock.Schedule(delay, func() {
		if h.node.Closed() {
			return
		}
		hp.due = true
		fire()
	})
}

// advance runs the peel/forward state machine for a mission: peel whatever
// has its key available, and forward whatever is both peeled and due.
func (h *Host) advance(mission MissionID) {
	ms, ok := h.missions[mission]
	if !ok {
		return
	}

	// Iterate custody in sorted order: forwarding emits network events, and
	// deterministic event sequencing is what makes whole-scenario runs
	// reproducible under a fixed seed (Go map order is randomized per run).
	// The sort scratch lives on the Host: advance runs on every packet arrival
	// and must not allocate in the steady state. Nothing below re-enters
	// advance — a send only schedules — so one scratch is enough.
	refs := h.refScratch[:0]
	for ref := range ms.sealed {
		refs = append(refs, ref)
	}
	slices.SortFunc(refs, custodyOrder)
	h.refScratch = refs

	// Try peeling each onion with the key at its Ref: granted directly, or
	// recovered from shares and validated against the onion itself.
	for _, ref := range refs {
		key, direct := ms.keys[ref]
		if k, recovered := h.peel(ms, ms.sealed[ref], key, direct, ms.shares[ref]); recovered {
			put(&ms.keys, ref, k)
		}
	}
	// Forward anything peeled and due, after every peel.
	for _, ref := range refs {
		hp := ms.sealed[ref]
		if hp.peeled != nil && hp.due && !hp.done {
			hp.done = true
			if ref.Slot == ColumnWide {
				h.forwardMain(mission, int(ref.Column), hp)
			} else {
				h.forwardSlot(mission, ref, hp)
			}
		}
	}
}

// custodyOrder is advance's peel and forward order: column-wide custody
// first, by column, then slot custody by (column, slot).
func custodyOrder(a, b Ref) int {
	if wide := a.Slot == ColumnWide; wide != (b.Slot == ColumnWide) {
		if wide {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(a.Column, b.Column), cmp.Compare(a.Slot, b.Slot))
}

// peel attempts to open the held package with the directly-granted
// key or, failing that, with candidate keys recovered from subsets of the
// collected shares — the authenticated onion layer is the success oracle
// that tells a true threshold interpolation from garbage, so stale,
// churn-duplicated or adversary-injected shares can delay recovery but
// never poison it. A key the oracle confirms is returned (recovered=true)
// for the caller to cache, so later peels (and re-grants) skip the search.
// Peels run through the mission's sealer cache: a granted key's cipher
// state is built once, and a confirmed candidate's sealer is kept so the
// re-grant path never rebuilds it.
func (h *Host) peel(ms *missionState, hp *heldPackage, key seal.Key, direct bool, shares []shamir.Share) (recoveredKey seal.Key, recovered bool) {
	if hp == nil || hp.peeled != nil {
		return seal.Key{}, false
	}
	if direct {
		if s := ms.sealerFor(key); s != nil {
			if layer, err := onion.PeelSealer(s, hp.pkt.Data); err == nil {
				hp.peeled = &layer
				h.releaseCustody(hp) // the layer owns fresh plaintext; the sealed clone is dead
			}
		}
		return seal.Key{}, false
	}
	if len(shares) == hp.triedShares {
		return seal.Key{}, false // nothing new since the last failed recovery
	}
	hp.triedShares = len(shares)
	for _, cand := range shareKeyCandidates(shares) {
		s, err := seal.NewSealer(cand)
		if err != nil {
			continue
		}
		if layer, err := onion.PeelSealer(s, hp.pkt.Data); err == nil {
			hp.peeled = &layer
			h.releaseCustody(hp)
			put(&ms.sealers, cand, s)
			return cand, true
		}
	}
	return seal.Key{}, false
}

// maxShareCombines bounds the subset interpolations of one recovery attempt:
// the honest no-conflict path needs a single combine, one poisoned share
// needs a leave-one-out round, and anything past the bound (mass injection)
// degrades to waiting for more honest material rather than burning CPU.
const maxShareCombines = 512

// shareKeyCandidates interpolates candidate keys from subsets of the
// collected shares, larger subsets first: with h consistent honest shares at
// or above the (holder-unknown) threshold, the all-honest subset of size h
// is reached before any smaller — and therefore underdetermined — one.
// Subsets carrying duplicate X coordinates (conflicting variants) are
// rejected by Combine itself and skipped; candidate keys are deduplicated.
// The order is deterministic, which keeps whole-scenario runs reproducible.
func shareKeyCandidates(shares []shamir.Share) []seal.Key {
	n := len(shares)
	if n == 0 {
		return nil
	}
	var (
		out      []seal.Key
		seen     map[seal.Key]bool
		combines int
	)
	try := func(sub []shamir.Share) {
		combines++
		raw, err := shamir.Combine(sub, len(sub))
		if err != nil {
			return
		}
		key, err := seal.KeyFromBytes(raw)
		if err != nil {
			return
		}
		if seen == nil {
			seen = make(map[seal.Key]bool)
		}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	if n <= 16 {
		sub := make([]shamir.Share, 0, n)
		var rec func(start, size int)
		rec = func(start, size int) {
			if combines >= maxShareCombines {
				return
			}
			if len(sub) == size {
				try(sub)
				return
			}
			for i := start; i <= n-(size-len(sub)); i++ {
				sub = append(sub, shares[i])
				rec(i+1, size)
				sub = sub[:len(sub)-1]
			}
		}
		for size := n; size >= 1 && combines < maxShareCombines; size-- {
			rec(0, size)
		}
		return out
	}
	// Collections too large to enumerate exhaustively: the full set, then
	// every single and pair exclusion — tolerating up to two poisoned shares
	// without an exponential search.
	try(shares)
	sub := make([]shamir.Share, 0, n-1)
	for i := 0; i < n && combines < maxShareCombines; i++ {
		sub = append(sub[:0], shares[:i]...)
		sub = append(sub, shares[i+1:]...)
		try(sub)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n && combines < maxShareCombines; j++ {
			sub = sub[:0]
			for t, s := range shares {
				if t != i && t != j {
					sub = append(sub, s)
				}
			}
			try(sub)
		}
	}
	return out
}

// forwardMain forwards a peeled, due main onion (or makes the final secret
// delivery).
func (h *Host) forwardMain(mission MissionID, col int, hp *heldPackage) {
	layer, pkt := hp.peeled, hp.pkt
	if layer.Payload != nil {
		// Terminal layer: release the secret to the receiver.
		if len(layer.NextHops) > 0 {
			target, err := dht.IDFromBytes(layer.NextHops[0])
			if err != nil {
				return
			}
			sendPacket(h.node, target, Packet{
				Mission: mission,
				Kind:    PkSecret,
				Data:    layer.Payload,
			}, 1)
		}
		return
	}
	for s, hop := range layer.NextHops {
		target, err := dht.IDFromBytes(hop)
		if err != nil {
			continue
		}
		sendPacket(h.node, target, Packet{
			Mission:   mission,
			Kind:      PkMainOnion,
			Column:    uint16(col + 1),
			Slot:      uint16(s),
			HoldUntil: pkt.HoldUntil + pkt.Step,
			Step:      pkt.Step,
			Target:    pkt.Target,
			Data:      layer.Rest,
		}, h.replicas())
	}
}

// forwardSlot scatters a peeled, due slot onion: deliver the column share to
// every next carrier, each slot share to its slot, and the remaining slot
// onion down its own stream. A scattered share's Data is ParseShareTag's view
// into the peeled layer, never a copy.
func (h *Host) forwardSlot(mission MissionID, ref Ref, hp *heldPackage) {
	layer, pkt := hp.peeled, hp.pkt
	hops := make([]dht.ID, 0, len(layer.NextHops))
	for _, hop := range layer.NextHops {
		id, err := dht.IDFromBytes(hop)
		if err != nil {
			return
		}
		hops = append(hops, id)
	}
	next := Packet{
		Mission:   mission,
		Column:    uint16(ref.Column + 1),
		HoldUntil: pkt.HoldUntil + pkt.Step,
		Step:      pkt.Step,
	}
	for _, blob := range layer.Shares {
		slot, share, err := ParseShareTag(blob)
		if err != nil {
			continue
		}
		p := next
		p.Kind, p.Data = PkSlotShare, share
		first, end := slot, slot+1
		if slot == ColumnWide {
			// Width rides along so any receiving custodian can repair
			// the whole column's share custody (column-key shares fan
			// out to every carrier).
			p.Kind, p.Width = PkColShare, uint16(len(hops))
			first, end = 0, len(hops)
		}
		for s := first; s < min(end, len(hops)); s++ {
			p.Slot = uint16(s)
			sendPacket(h.node, hops[s], p, h.replicas())
		}
	}
	if layer.Rest != nil && int(ref.Slot) < len(hops) {
		next.Kind, next.Slot, next.Data = PkSlotOnion, uint16(ref.Slot), layer.Rest
		sendPacket(h.node, hops[ref.Slot], next, h.replicas())
	}
}
