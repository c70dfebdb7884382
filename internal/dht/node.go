package dht

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"selfemerge/internal/freelist"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// Config configures a DHT node.
type Config struct {
	// ID is the node's identifier. Required.
	ID ID
	// Endpoint is the transport attachment. Required; the node installs its
	// own handler.
	Endpoint transport.Endpoint
	// Clock drives RPC timeouts and retry backoff. Required (sim or real).
	Clock sim.Clock
	// Retry is the total number of sends per request. 0 or 1 is single-shot,
	// the historical behavior with no retry machinery at all: one send, one
	// rpcTimeout, one ErrTimeout. Above 1 a timed-out request holds its
	// pending slot through a deterministic exponential backoff gap and is
	// re-sent verbatim (same RPCID), up to Retry sends total; the callback
	// sees ErrTimeout only after the last attempt times out. Responses to any
	// attempt settle the RPC — a late answer to the first send arriving
	// during a backoff gap still counts.
	//
	// Once the node has measured a round trip, the first attempt also
	// re-sends early: its first deadline is the node's retransmission timeout
	// (srtt + max(4·rttvar, 1 ms), clamped to [50 ms, rpcTimeout], RFC 6298),
	// at which it re-sends under the same RPCID and waits a full rpcTimeout
	// more before the schedule above takes over. That re-send counts in
	// Retries, and an RPC it settles counts in Recovered. Only a response to a
	// first send that was never re-sent, before any gap, measures a round trip
	// (Karn's rule). A node with no measurement yet, single-shot requests and
	// ping-evict probes run without the early re-send.
	Retry int
	// Table selects the full-bucket admission policy. TableDefault resolves
	// to TablePingEvict: the library is eclipse-resistant unless a caller
	// explicitly opts into the naive policy (the adversary experiments do,
	// for their undefended baseline arm).
	Table TablePolicy
	// OnApp receives application payloads (the self-emerging protocol
	// messages). Optional.
	OnApp AppHandler
	// Scratch is the recycled working memory this node shares with every
	// other node dispatched from the same serial context (see Scratch). Nil
	// gives the node a private one — right for a real socket, whose loop is a
	// dispatch context of its own.
	Scratch *Scratch
}

// AppHandler consumes the application payloads a node receives, valid for
// the call only. protocol.Host is one; binding it allocates nothing.
type AppHandler interface {
	HandleApp(from Contact, payload []byte)
}

// The Kademlia parameters. Every deployment of this tree — simulated
// networks, dhtnode, the benchmark rigs — runs these values, so they are
// constants rather than Config fields.
const (
	// bucketK is Kademlia's k: the bucket size, the FIND_NODE response
	// width and the lookup termination window.
	bucketK = 20
	// alpha is the lookup parallelism.
	alpha = 3
	// staleAfter is the naive policy's bucket-eviction staleness threshold.
	staleAfter = 10 * time.Minute
	// rpcTimeout bounds each attempt of a request/response exchange, the
	// ping-evict policy's liveness probes included. It is also the ceiling of
	// the measured retransmission timeout (rto): no peer can stretch a first
	// send's deadline past it.
	rpcTimeout = 500 * time.Millisecond
	// rtoMin is the floor of the measured retransmission timeout: no peer can
	// pull a first re-send closer than this to its send, however fast it
	// answers.
	rtoMin = 50 * time.Millisecond
	// rtoGranularity is RFC 6298's G, the least margin rto keeps over the
	// smoothed round trip when the variance has settled to nothing.
	rtoGranularity = time.Millisecond
)

func (c Config) withDefaults() Config {
	if c.Table == TableDefault {
		c.Table = TablePingEvict
	}
	if c.Scratch == nil {
		c.Scratch = NewScratch(0)
	}
	return c
}

// ErrTimeout is passed to RPC callbacks when the peer does not answer
// within rpcTimeout (of its last attempt, under a retry policy). A retry
// policy's early re-send of a first request (see Config.Retry) only adds to
// the time before it: a request nobody answers fails no earlier than it would
// without one.
var ErrTimeout = errors.New("dht: rpc timeout")

// ErrClosed is returned for operations on a closed node.
var ErrClosed = errors.New("dht: node closed")

// Node is one Kademlia participant. A node, its table and the protocol host
// above it belong to one dispatch context — the loop that runs cfg.Clock,
// shared with every node on the same Scratch. Inbound datagrams, timers and
// API calls (Bootstrap, Lookup, Ping, SendApp, SendBufToOwners, Close) all run
// there, one at a time, so no field is locked and a callback may call back
// into the node. Other goroutines enter through the loop (udp.Loop.Post).
type Node struct {
	cfg   Config
	table *Table

	// incarnation tells this node's marks in the loop's acked-delivery dedup
	// index (Scratch.appSeen) and its walks in the loop's owner-walk index
	// (Scratch.ownerWalks) from those of another node with its ID.
	incarnation uint32
	// srtt and rttvar are the node's RFC 6298 round-trip estimator, in
	// nanoseconds (observeRTT). Each sits in padding the struct already had,
	// which is why they are apart; rttSampled is false until the first sample.
	srtt uint32

	// retryRng draws the backoff jitter; seeded only if the node is Retrying.
	retryRng stats.RNG

	// pending is the requests in flight in issue order, which is RPCID
	// order (rpcSeq only grows), so a response finds its record by binary
	// search. It starts on inline: eight slots fill the Node's size class,
	// and hold what a node has in flight outside a mission's owner walks.
	pending    []*pendingRPC
	inline     [8]*pendingRPC
	rpcSeq     uint64
	resilience Resilience
	closed     bool
	rttSampled bool
	rttvar     uint32
}

// pendingRPC is one in-flight request: a record recycled through the node's
// Scratch and armed as the timeout event's argument, so the per-RPC cost is
// neither a record allocation nor a timeout closure.
//
// fn is a package-level function with its argument, so hot callers (the
// lookup query fan-out, with its lookup state) issue RPCs without allocating
// a response closure. It receives the ID the request went to and the
// response, the receive path's scratch Message, valid for the call only; the
// response is nil exactly when err is not.
//
// Release protocol: whichever path removes the record from n.pending stops
// its timer and releases it, copying the callback out first. An armed timer
// always finds its record still pending.
type pendingRPC struct {
	node  *Node
	fn    func(arg any, to ID, m *Message, err error)
	arg   any
	timer sim.ArgTimer
	to    ID // the zero ID stands for "whoever answers from addr" (a seed known by address only)
	id    uint64

	// Retry state. wire retains the encoded request for re-sends (empty
	// when the request is single-shot), addr its destination, attempt the
	// number of sends made so far. waiting marks the backoff gap between a
	// timed-out attempt and its re-send: the timer is re-armed twice per
	// retry (timeout, then gap), and whichever phase it is in, the record
	// stays in n.pending so a late response can still settle it.
	//
	// sent is the instant of the first send, the start of the one round trip
	// the record can sample. early marks a first deadline armed at the node's
	// rto rather than rpcTimeout, resent that the first attempt has been
	// re-sent at it (rpcTimedOut).
	wire    []byte
	addr    transport.Addr
	sent    time.Time
	attempt int
	waiting bool
	early   bool
	resent  bool
}

// releasePending returns a settled record to its node's scratch. The wire
// buffer keeps its capacity for the record's next life.
func releasePending(p *pendingRPC) {
	s := p.node.cfg.Scratch
	p.node, p.fn, p.arg = nil, nil, nil
	p.timer = sim.ArgTimer{}
	p.wire = p.wire[:0]
	p.addr = ""
	p.sent = time.Time{}
	p.attempt = 0
	p.waiting, p.early, p.resent = false, false, false
	s.rpcs.Put(p)
}

// rpcTimedOut is the package-level timeout callback: fires when the peer did
// not answer within the attempt's deadline, and again at the end of each
// retry backoff gap. A retryable record cycles timeout → backoff gap →
// re-send until its attempts run out; only then does the callback see
// ErrTimeout. A first deadline armed at the node's rto comes before all of
// that: it re-sends at once and gives the first attempt a full rpcTimeout
// more, after which the cycle runs as it would have.
func rpcTimedOut(v any) {
	p := v.(*pendingRPC)
	n := p.node
	if p.early {
		p.early, p.resent = false, true
		n.resilience.Retries++
		p.timer = n.cfg.Clock.AfterFuncArg(rpcTimeout, rpcTimedOut, p)
		_ = n.send(p.addr, p.wire)
		return
	}
	if len(p.wire) > 0 && p.attempt < n.cfg.Retry {
		if !p.waiting {
			// Attempt timed out with retries left: hold the pending slot
			// through a deterministic jittered backoff, so a straggling
			// response can still settle the RPC mid-gap.
			p.waiting = true
			p.timer = n.cfg.Clock.AfterFuncArg(backoff(p.attempt, &n.retryRng), rpcTimedOut, p)
			return
		}
		// Backoff elapsed: re-send the retained wire form (same RPCID) and
		// arm a fresh attempt deadline.
		p.waiting = false
		p.attempt++
		n.resilience.Retries++
		p.timer = n.cfg.Clock.AfterFuncArg(rpcTimeout, rpcTimedOut, p)
		_ = n.send(p.addr, p.wire)
		return
	}
	i, _ := n.pendingAt(p.id)
	n.pending = slices.Delete(n.pending, i, i+1)
	fn, arg, to := p.fn, p.arg, p.to
	releasePending(p)
	// Unresponsive: penalize in the routing table.
	n.table.Remove(to)
	fn(arg, to, nil, ErrTimeout)
}

// NewNode creates a node and installs its transport handler. The node is
// immediately live; call Bootstrap to join an existing network.
func NewNode(cfg Config) (*Node, error) {
	n := new(Node)
	if err := n.Init(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Init is NewNode for a node held inside a larger record: protocol.Host
// keeps its node by value, and a churn join rebuilds a dead host in place
// with it. n must be a zero Node or a closed one, whose table it wipes and
// keeps; Init panics on an open node. A failed Init leaves n as it was.
func (n *Node) Init(cfg Config) error {
	if n.cfg.Endpoint != nil && !n.closed {
		panic("dht: Init on an open node")
	}
	if cfg.Endpoint == nil {
		return errors.New("dht: config requires an endpoint")
	}
	if cfg.Clock == nil {
		return errors.New("dht: config requires a clock")
	}
	if cfg.ID.IsZero() {
		return errors.New("dht: config requires a non-zero ID")
	}
	cfg = cfg.withDefaults()
	// Past the node's own last number too, which another Scratch stamped.
	cfg.Scratch.incarnations = max(cfg.Scratch.incarnations, n.incarnation) + 1
	table := n.table
	if table == nil {
		table = new(Table)
	}
	*n = Node{cfg: cfg, table: table, incarnation: cfg.Scratch.incarnations}
	n.pending = n.inline[:0]
	n.table.wipe(cfg.ID, bucketK, staleAfter, cfg.Clock)
	n.table.book = &cfg.Scratch.books
	if n.Retrying() {
		n.retryRng = stats.Seeded(retrySeed(cfg.ID))
	}
	n.table.SetPolicy(cfg.Table)
	if cfg.Table == TablePingEvict {
		n.table.SetPinger(func(c Contact, done func(alive bool)) {
			n.probe(c, func(err error) {
				// A probe failed by Close ends in the closing instant: the
				// table a closed node keeps takes nothing until Init wipes it.
				if !n.closed {
					done(err == nil)
				}
			})
		})
	}
	// Only a wrapping endpoint, with no SetReceiver, costs a closure.
	if ep, ok := cfg.Endpoint.(transport.ReceiverSetter); ok {
		ep.SetReceiver(n)
	} else {
		cfg.Endpoint.SetHandler(n.Receive)
	}
	return nil
}

// ID returns the node identifier.
func (n *Node) ID() ID { return n.cfg.ID }

// Clock returns the clock that runs the node's loop (Config.Clock).
func (n *Node) Clock() sim.Clock { return n.cfg.Clock }

// Incarnation is the number Init stamped on the node, distinct for every
// node built on one Scratch and larger than that of the node it was built
// over: a node built again in place is told from the one that was there
// before.
func (n *Node) Incarnation() uint32 { return n.incarnation }

// Contact returns the node's own contact record.
func (n *Node) Contact() Contact {
	return Contact{ID: n.cfg.ID, Addr: n.cfg.Endpoint.Addr()}
}

// Table exposes the routing table (read-mostly; used by tests and churn
// instrumentation). A closed node keeps its table for the node Init builds in
// its place, so on a closed node each call makes an empty table, which routes
// nowhere and which no other node ever sees.
func (n *Node) Table() *Table {
	if n.closed {
		return newTable(n.cfg.ID, bucketK, staleAfter, n.cfg.Clock)
	}
	return n.table
}

// Closed reports whether Close has run: what the node's protocol host asks
// before acting on a timer that outlived the node.
func (n *Node) Closed() bool { return n.closed }

// Close detaches the node from the network and fails all pending RPCs, each
// as an event of the closing instant. It keeps the routing table, which the
// next Init wipes.
func (n *Node) Close() error {
	if n.closed {
		return nil
	}
	n.closed = true
	// Fail pending RPCs in issue order, each as an event of its own.
	for _, p := range n.pending {
		p.timer.Stop()
		n.cfg.Clock.ScheduleArg(0, rpcClosed, p)
	}
	clear(n.pending)
	n.pending = n.pending[:0]
	return n.cfg.Endpoint.Close()
}

// rpcClosed fails a closed node's request with ErrClosed, as an event of its
// own: its callback never runs inside the call that closed the node or
// issued the request.
func rpcClosed(v any) {
	p := v.(*pendingRPC)
	fn, arg, to := p.fn, p.arg, p.to
	releasePending(p)
	fn(arg, to, nil, ErrClosed)
}

// Receive is the node's transport.Receiver. It decodes into the scratch
// Message (one datagram is in dispatch at a time per Scratch), so everything
// the dispatch touches — including msg.App handed to OnApp — is valid only
// until Receive returns; consumers that keep bytes must copy them.
func (n *Node) Receive(from transport.Addr, data []byte) {
	if n.closed {
		return // read off a real socket before Close, handled after it
	}
	s := n.cfg.Scratch
	if s.rxBusy {
		// Only a bug gets here: a handler invoked synchronously from inside
		// another, or one Scratch shared across dispatch contexts. Decoding
		// now would overwrite the message still being dispatched.
		panic("dht: Scratch re-entered: handlers sharing a Scratch must run serially")
	}
	s.rxBusy = true
	msg := &s.rx
	defer func() {
		// The contact view aliases data, which is the transport's again once
		// this returns.
		msg.contacts = contactsView{}
		s.rxBusy = false
	}()
	if _, err := decodeMessageInto(msg, data); err != nil {
		return // malformed datagram: drop, like any UDP service
	}
	if msg.From.ID == n.cfg.ID {
		return // ignore self-echo
	}
	// Trust the socket-level source address over the claimed one.
	msg.From.Addr = from
	switch msg.Kind {
	case KindPong, KindFindNodeResp, KindAppAck:
		// A response is observed by settle, once: verified if it matches a
		// request this node issued, unverified otherwise.
		n.settle(msg)
		return
	}
	// The observation is unverified — anyone can put any ID in From — so it
	// may refresh or insert, but never re-point a tracked ID's address.
	n.table.Observe(msg.From)

	switch msg.Kind {
	case KindPing:
		n.reply(msg.From, Message{Kind: KindPong, RPCID: msg.RPCID})
	case KindFindNode:
		n.replyClosest(msg.From.Addr, msg.RPCID, msg.Target)
	case KindApp:
		if msg.RPCID != 0 {
			// An acked app delivery (the sender runs a retry policy): always
			// acknowledge — the sender may have missed an earlier ack — and
			// suppress repeats of the same (sender, RPCID), whether re-sent
			// or fault-duplicated in flight.
			dup := s.appSeen.mark(appKey{rpc: msg.RPCID, from: msg.From.ID, node: n.incarnation})
			n.reply(msg.From, Message{Kind: KindAppAck, RPCID: msg.RPCID})
			if dup {
				n.resilience.Duplicates++
				return
			}
		}
		if n.cfg.OnApp != nil {
			n.cfg.OnApp.HandleApp(msg.From, msg.App)
		}
	}
}

// Bufs is the byte-buffer list of the node's dispatch context (see Scratch):
// the protocol layer above recycles its packet and custody buffers through
// the same loop-owned list the node's own datagrams use.
func (n *Node) Bufs() *freelist.List[[]byte] { return &n.cfg.Scratch.bufs }

// App is the slot of the node's dispatch context for the application above
// it, as Bufs is its buffer list: the protocol layer keeps the custody of
// every host on the loop there.
func (n *Node) App() *any { return n.cfg.Scratch.App() }

// sendBuf puts the datagram in buf on the wire and recycles buf — the one
// place a wire buffer ends its life: transport.Endpoint.Send does not retain
// its payload, so the buffer is reusable the moment the send returns.
func (n *Node) sendBuf(to transport.Addr, buf *[]byte) error {
	err := n.send(to, *buf)
	n.cfg.Scratch.bufs.Put(buf)
	return err
}

// send is the one place a datagram leaves a node, and a closed node sends
// nothing: its endpoint may since have been re-opened for its replacement
// (simnet re-opens a closed endpoint in place), so a send from the dead node
// would go out under the replacement's name.
func (n *Node) send(to transport.Addr, data []byte) error {
	if n.closed {
		return ErrClosed
	}
	return n.cfg.Endpoint.Send(to, data)
}

// encode returns m's wire form, stamped with this node as the sender, in a
// buffer of the loop's list.
func (n *Node) encode(m *Message) (*[]byte, error) {
	m.From = n.Contact()
	buf := n.cfg.Scratch.bufs.Get()
	data, err := m.AppendEncode((*buf)[:0])
	if err != nil {
		n.cfg.Scratch.bufs.Put(buf)
		return nil, err
	}
	*buf = data
	return buf, nil
}

// sendMessage sends m with no pending bookkeeping: responses and
// fire-and-forget app payloads.
func (n *Node) sendMessage(to transport.Addr, m Message) error {
	buf, err := n.encode(&m)
	if err != nil {
		return err
	}
	return n.sendBuf(to, buf)
}

// reply sends a response message.
func (n *Node) reply(to Contact, m Message) {
	_ = n.sendMessage(to.Addr, m)
}

// replyClosest answers a FIND_NODE with the K contacts nearest target,
// written from the routing table straight into a wire buffer
// (appendClosestReply). A closed node's table is an empty one (Table), and
// sendBuf refuses its reply.
func (n *Node) replyClosest(to transport.Addr, rpcID uint64, target ID) {
	buf := n.cfg.Scratch.bufs.Get()
	from := n.Contact()
	*buf = appendClosestReply((*buf)[:0], rpcID, &from, n.Table(), target)
	_ = n.sendBuf(to, buf)
}

// callFunc runs a func(*Message, error) riding an RPC's arg slot: func values
// are pointer-shaped, so boxing one allocates nothing.
func callFunc(cb any, _ ID, m *Message, err error) { cb.(func(*Message, error))(m, err) }

// requestArg sends m to the peer and arranges for fn(arg, to.ID, response)
// to run with the response or ErrTimeout. With a package-level fn and a
// recycled record as arg, issuing the RPC allocates nothing.
func (n *Node) requestArg(to Contact, m Message, fn func(any, ID, *Message, error), arg any) {
	n.startRequest(to, m, fn, arg, n.Retrying())
}

// startRequest is the one send path of a request: retry opts it into the
// node's retry schedule (Config.Retry).
func (n *Node) startRequest(to Contact, m Message, fn func(any, ID, *Message, error), arg any, retry bool) {
	if n.closed {
		p := n.cfg.Scratch.rpcs.Get()
		p.node, p.fn, p.arg, p.to = n, fn, arg, to.ID
		n.cfg.Clock.ScheduleArg(0, rpcClosed, p)
		return
	}
	n.rpcSeq++
	m.RPCID = n.rpcSeq
	buf, err := n.encode(&m)
	if err != nil {
		n.cfg.Clock.Schedule(0, func() { fn(arg, to.ID, nil, err) })
		return
	}
	p := n.cfg.Scratch.rpcs.Get()
	p.node, p.fn, p.arg, p.to, p.id = n, fn, arg, to.ID, m.RPCID
	p.addr, p.sent, p.attempt = to.Addr, n.cfg.Clock.Now(), 1
	deadline := rpcTimeout
	if retry {
		p.wire = append(p.wire[:0], *buf...) // retained for re-sends
		if n.rttSampled {
			p.early, deadline = true, n.rto()
		}
	}
	p.timer = n.cfg.Clock.AfterFuncArg(deadline, rpcTimedOut, p)
	n.pending = append(n.pending, p)
	_ = n.sendBuf(to.Addr, buf)
}

// probe is the ping-evict policy's liveness check. It never retries,
// whatever the node's Config.Retry: the replacement-cache policy wants one
// prompt liveness verdict per admission decision, and a retry-stretched probe
// would starve the cache of decisions exactly when the network degrades.
func (n *Node) probe(to Contact, cb func(error)) {
	done := func(_ *Message, err error) { cb(err) }
	n.startRequest(to, Message{Kind: KindPing}, callFunc, done, false)
}

// settle matches a response to its pending request and records the one table
// observation a response gets. msg is the scratch Message, valid for the call.
func (n *Node) settle(msg *Message) {
	i, found := n.pendingAt(msg.RPCID)
	if !found {
		// No pending slot at all: a late or fault-duplicated response
		// (its RPC already settled or timed out), dropped here.
		n.resilience.Duplicates++
	}
	if !found || !n.pending[i].answeredBy(msg.From) {
		// Unmatched, or forged or misrouted (keep waiting): seen alive on its
		// own word only (see Receive).
		n.table.Observe(msg.From)
		return
	}
	p := n.pending[i]
	n.pending = slices.Delete(n.pending, i, i+1)
	if p.attempt > 1 || p.waiting || p.resent {
		// Answered after a re-send, or mid-backoff after the first
		// deadline: without the retry policy holding the slot open (or
		// re-sending early) this RPC would already have failed with
		// ErrTimeout, or still be waiting. Which send the answer is to is
		// unknown, so it measures no round trip (Karn's rule).
		n.resilience.Recovered++
	} else {
		n.observeRTT(n.cfg.Clock.Now().Sub(p.sent))
	}
	// The peer answered at this address with an RPCID we issued to this ID:
	// the (ID, Addr) binding is confirmed, so address changes may be applied.
	// A verified observation does everything an unverified one at the same
	// instant would, so the response needs no Observe besides it.
	n.table.ObserveVerified(msg.From)
	fn, arg, to := p.fn, p.arg, p.to
	p.timer.Stop()
	releasePending(p)
	fn(arg, to, msg, nil)
}

// observeRTT feeds one round trip to the node's estimator, with RFC 6298's
// gains: rttvar moves 1/4 of the way to the sample's distance from srtt, then
// srtt moves 1/8 of the way to the sample. The first sample sets srtt to
// itself and rttvar to half of it. A sample is clamped to rpcTimeout first,
// which also keeps both fields inside 32 bits.
func (n *Node) observeRTT(r time.Duration) {
	r = min(max(r, 0), rpcTimeout)
	if !n.rttSampled {
		n.srtt, n.rttvar, n.rttSampled = uint32(r), uint32(r/2), true
		return
	}
	srtt, rttvar := time.Duration(n.srtt), time.Duration(n.rttvar)
	dev := srtt - r
	if dev < 0 {
		dev = -dev
	}
	rttvar += (dev - rttvar) / 4
	srtt += (r - srtt) / 8
	n.srtt, n.rttvar = uint32(srtt), uint32(rttvar)
}

// rto is the node's retransmission timeout: srtt + max(4·rttvar, G), clamped
// to [rtoMin, rpcTimeout]. A peer's answers can move it only inside that
// window, so it never arms a deadline later than rpcTimeout.
func (n *Node) rto() time.Duration {
	d := time.Duration(n.srtt) + max(4*time.Duration(n.rttvar), rtoGranularity)
	return min(max(d, rtoMin), rpcTimeout)
}

// pendingAt finds the request with RPCID id in n.pending.
func (n *Node) pendingAt(id uint64) (int, bool) {
	return slices.BinarySearchFunc(n.pending, id, func(p *pendingRPC, id uint64) int { return cmp.Compare(p.id, id) })
}

// answeredBy reports whether from is the peer the request went to: the ID it
// was addressed to or, for a seed known only by address, the socket-level
// source the datagram came from — the one identity a bootstrap address has.
func (p *pendingRPC) answeredBy(from Contact) bool {
	if p.to.IsZero() {
		return p.addr == from.Addr
	}
	return p.to == from.ID
}

// Ping checks a peer's liveness.
func (n *Node) Ping(to Contact, cb func(error)) {
	n.requestArg(to, Message{Kind: KindPing}, callFunc, func(_ *Message, err error) { cb(err) })
}

// SendApp delivers an opaque application payload directly to a known
// contact. Fire-and-forget, like all DHT datagrams — unless the node runs a
// retry policy, in which case the payload travels as an acknowledged
// request: the receiver replies KindAppAck (and dedups re-sent copies), and
// an unacknowledged send is re-sent per the policy.
func (n *Node) SendApp(to Contact, payload []byte) error {
	if n.closed {
		return ErrClosed
	}
	n.cfg.Scratch.counts.AppSends++
	if n.Retrying() {
		n.requestArg(to, Message{Kind: KindApp, App: payload}, appAckDone, nil)
		return nil
	}
	return n.sendMessage(to.Addr, Message{Kind: KindApp, App: payload})
}

// appAckDone consumes the ack (or final timeout) of a retried app send:
// the send interface stays fire-and-forget, so there is nobody to tell —
// the value of the exchange is the re-sends it drove.
func appAckDone(any, ID, *Message, error) {}

// Bootstrap seeds the routing table and performs a self-lookup to populate
// nearby buckets. A seed with a zero ID is known by address only (what an
// operator types after -join): it is pinged first, its reply is matched on
// the datagram's source address, and the self-lookup starts once every such
// seed has answered or timed out — against verified contacts, never a
// placeholder ID no reply could match. done (optional) receives the number
// of contacts known afterwards. The self-lookup runs its full window: a
// fresh ID's walk is also how its neighbourhood learns it exists.
func (n *Node) Bootstrap(seeds []Contact, done func(contacts int)) {
	n.join(seeds, done, false)
}

// Rejoin is Bootstrap for a node that takes over a departed node's ID and
// address, a churn replacement: its neighbours already route to it, so its
// self-lookup only fills its own table, and it stops once alpha answered
// replies in a row have added no contact to the walk's shortlist. The walk
// then asks nobody more; the queries still out drain, their replies reaching
// the table as any other, and its state goes back to the loop. The rule rests
// on the ID and address being reused: a node under a fresh identity must
// Bootstrap.
func (n *Node) Rejoin(seeds []Contact) {
	n.join(seeds, nil, true)
}

// join seeds the table and starts the self-lookup of Bootstrap, or of Rejoin.
func (n *Node) join(seeds []Contact, done func(contacts int), rejoin bool) {
	byAddr := 0
	for _, s := range seeds {
		switch {
		case s.ID.IsZero():
			byAddr++
		case s.ID != n.cfg.ID:
			n.Table().Observe(s)
		}
	}
	if byAddr > 0 {
		n.resolveSeeds(seeds, byAddr, done, rejoin)
		return
	}
	n.selfLookup(done, rejoin)
}

// resolveSeeds pings the left address-only seeds and starts the self-lookup
// when the last of them has answered or timed out.
func (n *Node) resolveSeeds(seeds []Contact, left int, done func(contacts int), rejoin bool) {
	for _, s := range seeds {
		if s.ID.IsZero() {
			n.Ping(s, func(error) {
				if left--; left == 0 {
					n.selfLookup(done, rejoin)
				}
			})
		}
	}
}

func (n *Node) selfLookup(done func(contacts int), rejoin bool) {
	cb, arg := lookupFinishNothing, any(nil)
	if done != nil {
		cb, arg = lookupFinishContacts, func([]Contact) { done(n.Table().Len()) }
	}
	ls := n.startLookup(n.cfg.ID, cb, arg)
	ls.rejoin = rejoin
	ls.step()
}

// lookupFinishNothing ends a lookup nobody waits on, a join's self-lookup:
// what it was for is what the table learned on the way.
func lookupFinishNothing(any, []Contact) {}
