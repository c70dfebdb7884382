package protocol

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
)

// Mission describes one self-emerging message: what to hide, for whom, and
// the timing window.
type Mission struct {
	ID       MissionID
	Plan     core.Plan
	Secret   []byte // the secret key protected by the scheme
	Receiver dht.ID // identifier the receiver listens on
	Start    time.Time
	Release  time.Time
	// Replicas is how many closest nodes receive each dispatched packet
	// (default holderReplicas). Scenario runs that cross-validate against
	// the Monte Carlo model use 1 so each holder slot maps to exactly one
	// physical node, as the model assumes.
	Replicas int
}

// replicas returns the mission's packet replica count.
func (m Mission) replicas() int {
	if m.Replicas > 0 {
		return m.Replicas
	}
	return holderReplicas
}

// Sender performs the sender-side mission construction of Section III:
// routing path selection, onion and key-share package generation, and
// injection into the DHT. It owns the randomness source every cryptographic
// draw of a dispatch flows through — mission identifiers, layer keys, GCM
// nonces, Shamir polynomial coefficients — so a Sender built over a seeded
// stream (stats.ByteStream) makes entire missions byte-reproducible, while
// the default crypto/rand source serves real deployments. A Sender with a
// deterministic source is not safe for concurrent use; the crypto/rand
// default is.
type Sender struct {
	rand io.Reader
}

// NewSender returns a sender drawing all cryptographic randomness from r
// (nil means crypto/rand).
func NewSender(r io.Reader) *Sender {
	if r == nil {
		r = rand.Reader //lint:allow detrand real deployments key from the OS CSPRNG; deterministic runs inject a seeded reader
	}
	return &Sender{rand: r}
}

// defaultSender is the crypto/rand-backed sender behind the package-level
// Dispatch and NewMissionID.
var defaultSender = NewSender(nil)

// NewMissionID draws a random mission identifier from crypto/rand.
func NewMissionID() (MissionID, error) {
	return defaultSender.NewMissionID()
}

// NewMissionID draws a mission identifier from the sender's randomness
// source.
func (s *Sender) NewMissionID() (MissionID, error) {
	var id MissionID
	if _, err := io.ReadFull(s.rand, id[:]); err != nil {
		return MissionID{}, fmt.Errorf("protocol: mission id: %w", err)
	}
	return id, nil
}

// drawKeys fills keys from the sender's source, one read per key as
// seal.NewKeyFrom draws them, straight into the caller's array.
func (s *Sender) drawKeys(keys []seal.Key) error {
	for i := range keys {
		if _, err := io.ReadFull(s.rand, keys[i][:]); err != nil {
			return fmt.Errorf("protocol: drawing key: %w", err)
		}
	}
	return nil
}

// SlotID derives the DHT identifier of holder slot (column, slot) of a
// mission: the pseudo-random, deterministic holder selection of Section
// III ("pseudo-randomly selects nodes in the DHT to form the routing
// paths"). The tag is mission || "/column/slot" in decimal, assembled on
// the stack (this runs once per packet routed, so no fmt formatting).
func SlotID(mission MissionID, column, slot int) dht.ID {
	var tag [len(mission) + 2 + 2*20]byte
	b := append(tag[:0], mission[:]...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(column), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(slot), 10)
	return dht.IDFromKey(b)
}

// Dispatch validates the mission and injects all start-time packages into
// the DHT through node, drawing randomness from crypto/rand. It returns the
// number of packets sent.
func Dispatch(node *dht.Node, m Mission) (int, error) {
	return defaultSender.Dispatch(node, m)
}

// Dispatch validates the mission and injects all start-time packages into
// the DHT through node. It returns the number of packets sent. Packets are
// routed to the current owners of the mission's slot IDs.
func (s *Sender) Dispatch(node *dht.Node, m Mission) (int, error) {
	if err := m.validate(); err != nil {
		return 0, err
	}
	switch m.Plan.Scheme {
	case core.SchemeCentral:
		return s.dispatchCentral(node, m)
	case core.SchemeDisjoint:
		return s.dispatchMultipath(node, m, false)
	case core.SchemeJoint:
		return s.dispatchMultipath(node, m, true)
	case core.SchemeKeyShare:
		return s.dispatchShare(node, m)
	default:
		return 0, fmt.Errorf("protocol: unknown scheme %v", m.Plan.Scheme)
	}
}

func (m Mission) validate() error {
	if err := m.Plan.Validate(); err != nil {
		return err
	}
	if len(m.Secret) == 0 {
		return errors.New("protocol: mission has no secret")
	}
	if m.Receiver.IsZero() {
		return errors.New("protocol: mission has no receiver")
	}
	if !m.Release.After(m.Start) {
		return errors.New("protocol: release time must follow start time")
	}
	return nil
}

// emergingPeriod returns T and the holding period th = T/l.
func (m Mission) timing() (hold time.Duration, releaseAt int64) {
	total := m.Release.Sub(m.Start)
	return m.Plan.HoldPeriod(total), m.Release.UnixNano()
}

// holderReplicas is how many closest nodes receive each protocol packet.
// Lookups from different vantage points (the sender at ts, the previous
// holder at each hop) can resolve a slot ID to different nodes while
// routing tables converge; delivering to the top two and deduplicating at
// the receiver makes the rendezvous reliable.
const holderReplicas = 2

// sendPacket encodes p into a buffer of the node's loop and routes it to the
// current owners of slot, no earlier than notBefore (Unix nanoseconds; zero
// sends as soon as the owners are known). The owners are resolved
// asynchronously, so the buffer stays referenced until the lookup-and-send
// completes; the node returns it to the list then.
func sendPacket(node *dht.Node, slot dht.ID, p Packet, replicas int, notBefore int64) {
	buf := node.Bufs().Get()
	*buf = p.AppendEncode((*buf)[:0])
	node.SendBufToOwners(slot, buf, replicas, notBefore)
}

// send routes one packet to the owners of the given slot identifier at once.
func send(node *dht.Node, slot dht.ID, m Mission, p Packet) {
	sendPacket(node, slot, p, m.replicas(), 0)
}

func (s *Sender) dispatchCentral(node *dht.Node, m Mission) (int, error) {
	_, releaseAt := m.timing()
	send(node, SlotID(m.ID, 1, 0), m, Packet{
		Mission:   m.ID,
		Kind:      PkCentral,
		Column:    1,
		HoldUntil: releaseAt,
		Target:    m.Receiver,
		Data:      m.Secret,
	})
	return 1, nil
}

// dispatchMultipath implements the node-disjoint (joint=false) and
// node-joint (joint=true) schemes: k onion replicas over l columns with
// layer keys pre-assigned at start time.
func (s *Sender) dispatchMultipath(node *dht.Node, m Mission, joint bool) (int, error) {
	k, l := m.Plan.K, m.Plan.L
	hold, _ := m.timing()

	// One layer key per column, replicated across the column's k holders.
	// The sealers cache each key's AES-GCM state, so the disjoint scheme's
	// k onion replicas pay every key schedule once, not once per onion.
	keys := make([]seal.Key, l)
	if err := s.drawKeys(keys); err != nil {
		return 0, err
	}
	sealers := make([]*seal.Sealer, l)
	for c, key := range keys {
		var err error
		if sealers[c], err = seal.NewSealerRand(key, s.rand); err != nil {
			return 0, err
		}
	}

	sent := 0
	// Pre-assign layer keys to every holder slot at start time. Each grant
	// carries the column width, its holding period and the instant the
	// column forwards its onion, so that surviving custodians can re-grant
	// the key to churn replacements once per holding period until the key
	// is no longer needed (protocol churn repair, Section II-C).
	for c := 1; c <= l; c++ {
		for sl := 0; sl < k; sl++ {
			send(node, SlotID(m.ID, c, sl), m, Packet{
				Mission:   m.ID,
				Kind:      PkKeyGrant,
				Column:    uint16(c),
				Slot:      uint16(sl),
				Width:     uint16(k),
				HoldUntil: m.Start.Add(time.Duration(c) * hold).UnixNano(),
				Step:      int64(hold),
				Data:      keys[c-1][:],
			})
			sent++
		}
	}

	// Build and send the onions. Layer c < l names slots of column c+1, all
	// of them (joint) or its path's own (disjoint); layer l names the
	// receiver. One layer array serves every path, its hops views into one
	// arena of the mission's next-hop IDs.
	hops := nextHops(m, l, k)
	layers := make([]onion.Layer, l)
	layers[l-1] = onion.Layer{NextHops: hops[(l-1)*k:], Payload: m.Secret}

	// A joint onion names every slot of the next column, so one onion serves
	// all k paths; a disjoint path's onion names only its own slots.
	firstHold := m.Start.Add(hold).UnixNano()
	var wrapped []byte
	for path := 0; path < k; path++ {
		if path == 0 || !joint {
			for c := 1; c < l; c++ {
				col := hops[(c-1)*k : c*k]
				if !joint {
					col = col[path : path+1]
				}
				layers[c-1].NextHops = col
			}
			var err error
			if wrapped, err = onion.BuildSealers(layers, sealers); err != nil {
				return sent, err
			}
		}
		send(node, SlotID(m.ID, 1, path), m, Packet{
			Mission:   m.ID,
			Kind:      PkMainOnion,
			Column:    1,
			Slot:      uint16(path),
			HoldUntil: firstHold,
			Step:      int64(hold),
			Target:    m.Receiver,
			Data:      wrapped,
		})
		sent++
	}
	return sent, nil
}

// nextHops returns the hop arena of a mission whose columns are width slots
// wide: entries (c-1)*width .. c*width-1 name the slots of column c+1, for
// c = 1..l-1, and the last entry names the receiver. The views share one
// array of IDs.
func nextHops(m Mission, l, width int) [][]byte {
	ids := make([]dht.ID, (l-1)*width+1)
	hops := make([][]byte, len(ids))
	for i := range ids {
		ids[i] = m.Receiver
		if i < len(ids)-1 {
			ids[i] = SlotID(m.ID, 2+i/width, i%width)
		}
		hops[i] = ids[i][:]
	}
	return hops
}

// dispatchShare implements the key share routing scheme. Column keys CK_c
// seal the main onion's layers; slot keys SK_{c,s} seal each carrier
// chain's slot onions. Neither is pre-assigned: for c >= 2 both are Shamir
// split (m, n) and the shares ride inside the column c-1 slot onions,
// arriving exactly one hop ahead of the packages they unlock (Section
// III-D).
//
// A dispatch builds in one arena: the next-hop IDs once for the slot onions
// and the main onion, one layer, sealer and share-list array for all n slot
// streams, and one buffer for a stream's share tags. Keys, polynomials and
// nonces are drawn from the sender's stream in a fixed order: every key,
// then every split, then each onion's nonces as it is built.
func (s *Sender) dispatchShare(node *dht.Node, m Mission) (int, error) {
	k, l, n := m.Plan.K, m.Plan.L, m.Plan.ShareN
	hold, _ := m.timing()
	firstHold := m.Start.Add(hold).UnixNano()

	// keys holds CK_c at c-1 (columns 1..l), then SK_{c,sl} at
	// l+(c-1)*n+sl (columns 1..l-1).
	keys := make([]seal.Key, l+(l-1)*n)
	if err := s.drawKeys(keys); err != nil {
		return 0, err
	}
	sk := func(c, sl int) []byte { return keys[l+(c-1)*n+sl][:] }

	// Shamir-split the column c+1 keys; share index s goes to carrier
	// (c, s). thresholds[c-1] protects column c+1. Each split draws its
	// whole polynomial set in one batched read from the sender's source.
	ckShares := make([][]shamir.Share, l+1) // ckShares[c][s] = share of CK_c
	skShares := make([][][]shamir.Share, l) // skShares[c][t][s] = share of SK_{c,t}
	for c := 2; c <= l; c++ {
		threshold := m.Plan.ShareM[c-2]
		shares, err := shamir.SplitRand(s.rand, keys[c-1][:], threshold, n)
		if err != nil {
			return 0, fmt.Errorf("protocol: splitting CK_%d: %w", c, err)
		}
		ckShares[c] = shares
		if c < l {
			skShares[c] = make([][]shamir.Share, n)
			for t := 0; t < n; t++ {
				ss, err := shamir.SplitRand(s.rand, sk(c, t), threshold, n)
				if err != nil {
					return 0, fmt.Errorf("protocol: splitting SK_%d_%d: %w", c, t, err)
				}
				skShares[c][t] = ss
			}
		}
	}

	// Every column, the terminal one included, holds n carriers; the main
	// onion's last layer names the receiver.
	hops := nextHops(m, l, n)
	layers := make([]onion.Layer, l)
	sealers := make([]*seal.Sealer, l)

	// Slot onions: chain for carrier stream s over columns 1..l-1. Layer c
	// (sealed under SK_{c,s}) reveals the shares carrier (c, s) must
	// scatter: its share of CK_{c+1} and, when c+1 < l, its share of every
	// SK_{c+1,t}. A layer's share list is a run of shareList, each entry a
	// view of its tag in tags, which is sized for a whole stream.
	sent := 0
	if l > 1 {
		shareList := make([][]byte, (l-1)+(l-2)*n)
		tags := make([]byte, 0, (l-1)*(3+seal.KeySize)+(l-2)*n*(5+seal.KeySize))
		for sl := 0; sl < n; sl++ {
			tags, list := tags[:0], shareList[:0]
			for c := 1; c < l; c++ {
				first := len(list)
				at := len(tags)
				tags = AppendEncodeShareTag(tags, ColumnWide, ckShares[c+1][sl])
				list = append(list, tags[at:])
				if c+1 < l {
					for t := 0; t < n; t++ {
						at := len(tags)
						tags = AppendEncodeShareTag(tags, t, skShares[c+1][t][sl])
						list = append(list, tags[at:])
					}
				}
				layers[c-1] = onion.Layer{NextHops: hops[(c-1)*n : c*n], Shares: list[first:]}
				slr, err := seal.NewSealerRand(keys[l+(c-1)*n+sl], s.rand)
				if err != nil {
					return sent, err
				}
				sealers[c-1] = slr
			}
			wrapped, err := onion.BuildSealers(layers[:l-1], sealers[:l-1])
			if err != nil {
				return sent, err
			}
			send(node, SlotID(m.ID, 1, sl), m, Packet{
				Mission:   m.ID,
				Kind:      PkSlotOnion,
				Column:    1,
				Slot:      uint16(sl),
				HoldUntil: firstHold,
				Step:      int64(hold),
				Data:      wrapped,
			})
			sent++
			// Column 1 keys are delivered directly at start time, with repair
			// metadata so replacement entry carriers regain them within the
			// first holding period (layer keys for columns >= 2 exist only as
			// Shamir shares, which repair through the share re-grant path of
			// scheduleShareRefresh instead).
			send(node, SlotID(m.ID, 1, sl), m, directGrant(Packet{
				Mission:   m.ID,
				Column:    1,
				Slot:      uint16(sl),
				Width:     1,
				HoldUntil: firstHold,
				Step:      int64(hold),
				Data:      sk(1, sl),
			}, true))
			sent++
		}
	}

	// Main onion: layers 1..l under the column keys; the k main holders of
	// column 1 receive it (and CK_1) directly.
	for c := 1; c <= l; c++ {
		layers[c-1] = onion.Layer{NextHops: hops[(c-1)*n : min(c*n, len(hops))]}
		slr, err := seal.NewSealerRand(keys[c-1], s.rand)
		if err != nil {
			return sent, err
		}
		sealers[c-1] = slr
	}
	layers[l-1].Payload = m.Secret
	wrappedMain, err := onion.BuildSealers(layers, sealers)
	if err != nil {
		return sent, err
	}
	for sl := 0; sl < k; sl++ {
		send(node, SlotID(m.ID, 1, sl), m, Packet{
			Mission:   m.ID,
			Kind:      PkMainOnion,
			Column:    1,
			Slot:      uint16(sl),
			HoldUntil: firstHold,
			Step:      int64(hold),
			Target:    m.Receiver,
			Data:      wrappedMain,
		})
		sent++
		send(node, SlotID(m.ID, 1, sl), m, directGrant(Packet{
			Mission:   m.ID,
			Column:    1,
			Slot:      uint16(sl),
			Width:     uint16(k),
			HoldUntil: firstHold,
			Step:      int64(hold),
			Data:      keys[0][:], // CK_1
		}, false))
		sent++
	}
	return sent, nil
}
