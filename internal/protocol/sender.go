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
// current owners of slot. The owners are resolved asynchronously, so the
// buffer stays referenced until the lookup-and-send completes; the node
// returns it to the list then.
func sendPacket(node *dht.Node, slot dht.ID, p Packet, replicas int) {
	buf := node.Bufs().Get()
	*buf = p.AppendEncode((*buf)[:0])
	node.SendBufToOwners(slot, buf, replicas)
}

// send routes one packet to the owners of the given slot identifier.
func send(node *dht.Node, slot dht.ID, m Mission, p Packet) {
	sendPacket(node, slot, p, m.replicas())
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
	sealers := make([]*seal.Sealer, l)
	for c := range keys {
		key, err := seal.NewKeyFrom(s.rand)
		if err != nil {
			return 0, err
		}
		keys[c] = key
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

	// Build and send the onions.
	buildLayers := func(path int) []onion.Layer {
		layers := make([]onion.Layer, l)
		for c := 1; c <= l; c++ {
			var hops [][]byte
			if c < l {
				if joint {
					for sl := 0; sl < k; sl++ {
						id := SlotID(m.ID, c+1, sl)
						hops = append(hops, id[:])
					}
				} else {
					id := SlotID(m.ID, c+1, path)
					hops = append(hops, id[:])
				}
			} else {
				hops = append(hops, m.Receiver[:])
			}
			layers[c-1] = onion.Layer{NextHops: hops}
		}
		layers[l-1].Payload = m.Secret
		return layers
	}

	// A joint onion names every slot of the next column, so one onion serves
	// all k paths; a disjoint path's onion names only its own slots.
	firstHold := m.Start.Add(hold).UnixNano()
	var wrapped []byte
	for path := 0; path < k; path++ {
		if path == 0 || !joint {
			var err error
			if wrapped, err = onion.BuildSealers(buildLayers(path), sealers); err != nil {
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

// dispatchShare implements the key share routing scheme. Column keys CK_c
// seal the main onion's layers; slot keys SK_{c,s} seal each carrier
// chain's slot onions. Neither is pre-assigned: for c >= 2 both are Shamir
// split (m, n) and the shares ride inside the column c-1 slot onions,
// arriving exactly one hop ahead of the packages they unlock (Section
// III-D).
func (s *Sender) dispatchShare(node *dht.Node, m Mission) (int, error) {
	k, l, n := m.Plan.K, m.Plan.L, m.Plan.ShareN
	hold, _ := m.timing()
	firstHold := m.Start.Add(hold).UnixNano()

	ck := make([]seal.Key, l+1) // 1-based
	sk := make([][]seal.Key, l) // [column][slot], columns 1..l-1 used
	for c := 1; c <= l; c++ {
		key, err := seal.NewKeyFrom(s.rand)
		if err != nil {
			return 0, err
		}
		ck[c] = key
	}
	for c := 1; c < l; c++ {
		sk[c] = make([]seal.Key, n)
		for sl := 0; sl < n; sl++ {
			key, err := seal.NewKeyFrom(s.rand)
			if err != nil {
				return 0, err
			}
			sk[c][sl] = key
		}
	}

	// Shamir-split the column c+1 keys; share index s goes to carrier
	// (c, s). thresholds[c-1] protects column c+1. Each split draws its
	// whole polynomial set in one batched read from the sender's source.
	ckShares := make([][]shamir.Share, l+1) // ckShares[c][s] = share of CK_c
	skShares := make([][][]shamir.Share, l) // skShares[c][t][s] = share of SK_{c,t}
	for c := 2; c <= l; c++ {
		threshold := m.Plan.ShareM[c-2]
		shares, err := shamir.SplitRand(s.rand, ck[c][:], threshold, n)
		if err != nil {
			return 0, fmt.Errorf("protocol: splitting CK_%d: %w", c, err)
		}
		ckShares[c] = shares
		if c < l {
			skShares[c] = make([][]shamir.Share, n)
			for t := 0; t < n; t++ {
				ss, err := shamir.SplitRand(s.rand, sk[c][t][:], threshold, n)
				if err != nil {
					return 0, fmt.Errorf("protocol: splitting SK_%d_%d: %w", c, t, err)
				}
				skShares[c][t] = ss
			}
		}
	}

	// Slot onions: chain for carrier stream s over columns 1..l-1. Layer c
	// (sealed under SK_{c,s}) reveals the shares carrier (c, s) must
	// scatter: its share of CK_{c+1} and, when c+1 < l, its share of every
	// SK_{c+1,t}.
	sent := 0
	for sl := 0; sl < n; sl++ {
		var layers []onion.Layer
		var sealers []*seal.Sealer
		for c := 1; c < l; c++ {
			colShare := ckShares[c+1][sl]
			shares := [][]byte{AppendEncodeShareTag(nil, ColumnWide, colShare.X, colShare.Data)}
			if c+1 < l {
				for t := 0; t < n; t++ {
					slotShare := skShares[c+1][t][sl]
					shares = append(shares, AppendEncodeShareTag(nil, t, slotShare.X, slotShare.Data))
				}
			}
			// Every column, the terminal one included, holds n carriers.
			var hops [][]byte
			for t := 0; t < n; t++ {
				id := SlotID(m.ID, c+1, t)
				hops = append(hops, id[:])
			}
			layers = append(layers, onion.Layer{NextHops: hops, Shares: shares})
			slr, err := seal.NewSealerRand(sk[c][sl], s.rand)
			if err != nil {
				return sent, err
			}
			sealers = append(sealers, slr)
		}
		if len(layers) == 0 {
			continue
		}
		wrapped, err := onion.BuildSealers(layers, sealers)
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
			Data:      sk[1][sl][:],
		}, true))
		sent++
	}

	// Main onion: layers 1..l under the column keys; the k main holders of
	// column 1 receive it (and CK_1) directly.
	mainLayers := make([]onion.Layer, l)
	mainSealers := make([]*seal.Sealer, l)
	for c := 1; c <= l; c++ {
		var hops [][]byte
		if c < l {
			for t := 0; t < n; t++ {
				id := SlotID(m.ID, c+1, t)
				hops = append(hops, id[:])
			}
		} else {
			hops = append(hops, m.Receiver[:])
		}
		mainLayers[c-1] = onion.Layer{NextHops: hops}
		slr, err := seal.NewSealerRand(ck[c], s.rand)
		if err != nil {
			return sent, err
		}
		mainSealers[c-1] = slr
	}
	mainLayers[l-1].Payload = m.Secret
	wrappedMain, err := onion.BuildSealers(mainLayers, mainSealers)
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
			Data:      ck[1][:],
		}, false))
		sent++
	}
	return sent, nil
}
