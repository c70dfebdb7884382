// Package protocol implements the self-emerging key routing protocol of
// Section III on top of the DHT: the sender-side mission construction
// (routing path selection, onion and key-share package generation) and the
// holder-side runtime (hold timers, layer peeling, share recovery,
// forwarding), for all four schemes. Malicious holders feed an adversary
// collector and can mount release-ahead and drop attacks; churn kills
// holders mid-flight. The Monte Carlo engine (internal/mc) regenerates the
// paper's figures; this package is the executable protocol those models
// abstract.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
)

// MissionID identifies one self-emerging message end to end.
type MissionID [16]byte

// PacketKind enumerates protocol messages (carried inside DHT App
// payloads).
type PacketKind uint8

// Packet kinds.
const (
	// PkCentral instructs a single holder to keep Data until HoldUntil and
	// then deliver it to Target (the centralized scheme).
	PkCentral PacketKind = iota + 1
	// PkKeyGrant pre-assigns an onion layer key for a column
	// (disjoint/joint schemes).
	PkKeyGrant
	// PkMainOnion carries the (remaining) main onion to a holder.
	PkMainOnion
	// PkSlotOnion carries a share-path slot onion (key share scheme).
	PkSlotOnion
	// PkColShare carries one Shamir share of a column key CK_c.
	PkColShare
	// PkSlotShare carries one Shamir share of a slot key SK_{c,s}.
	PkSlotShare
	// PkSecret delivers the emerged secret to the receiver.
	PkSecret
)

// String names the kind.
func (k PacketKind) String() string {
	names := [...]string{"?", "CENTRAL", "KEY_GRANT", "MAIN_ONION", "SLOT_ONION",
		"COL_SHARE", "SLOT_SHARE", "SECRET"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("PacketKind(%d)", uint8(k))
}

// Packet is the single protocol message envelope.
type Packet struct {
	Mission MissionID
	Kind    PacketKind
	X       uint8  // key-grant scope marker (see Ref); zero on multipath grants
	Column  uint16 // 1-based holder column
	Slot    uint16 // 0-based slot within the column (path index)
	// Width is the number of holder slots in this packet's column. Carried
	// on PkKeyGrant and PkColShare so that any surviving custodian can
	// re-grant the column key, or push its column shares, to every slot of
	// its column during churn repair; zero on the other kinds.
	// With X beside Kind the header fields fill 24 bytes, so a custody
	// record, which keeps two packets, fits the 384-byte size class.
	Width uint16
	// HoldUntil is the absolute forward/release time in nanoseconds since
	// the epoch of the mission clock.
	HoldUntil int64
	// Step is the holding period th in nanoseconds, used by holders to
	// compute the next hop's HoldUntil.
	Step   int64
	Target dht.ID // receiver identifier (central/secret packets)
	Data   []byte
}

// ErrPacket is returned for malformed protocol payloads.
var ErrPacket = errors.New("protocol: malformed packet")

// AppendEncode appends the wire form to buf and returns the extended slice:
// send paths pass a recycled packet buffer, one-shot callers nil.
func (p Packet) AppendEncode(buf []byte) []byte {
	buf = append(buf, p.Mission[:]...)
	buf = append(buf, byte(p.Kind))
	buf = binary.BigEndian.AppendUint16(buf, p.Column)
	buf = binary.BigEndian.AppendUint16(buf, p.Slot)
	buf = binary.BigEndian.AppendUint16(buf, p.Width)
	buf = append(buf, p.X)
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.HoldUntil))
	buf = binary.BigEndian.AppendUint64(buf, uint64(p.Step))
	buf = append(buf, p.Target[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.Data)))
	buf = append(buf, p.Data...)
	return buf
}

// DecodePacket parses a protocol payload.
func DecodePacket(data []byte) (Packet, error) {
	const fixed = 16 + 1 + 2 + 2 + 2 + 1 + 8 + 8 + dht.IDBytes + 4
	if len(data) < fixed {
		return Packet{}, ErrPacket
	}
	var p Packet
	off := 0
	copy(p.Mission[:], data[off:off+16])
	off += 16
	p.Kind = PacketKind(data[off])
	off++
	if p.Kind < PkCentral || p.Kind > PkSecret {
		return Packet{}, ErrPacket
	}
	p.Column = binary.BigEndian.Uint16(data[off:])
	off += 2
	p.Slot = binary.BigEndian.Uint16(data[off:])
	off += 2
	p.Width = binary.BigEndian.Uint16(data[off:])
	off += 2
	p.X = data[off]
	off++
	p.HoldUntil = int64(binary.BigEndian.Uint64(data[off:]))
	off += 8
	p.Step = int64(binary.BigEndian.Uint64(data[off:]))
	off += 8
	copy(p.Target[:], data[off:off+dht.IDBytes])
	off += dht.IDBytes
	n := binary.BigEndian.Uint32(data[off:])
	off += 4
	if int(n) != len(data)-off {
		return Packet{}, ErrPacket
	}
	p.Data = data[off:]
	return p, nil
}

// ColumnWide is the Ref.Slot of column-scoped material: the layer key K_c of
// the multipath schemes, CK_c and its shares, and the main onion.
const ColumnWide = -1

// Ref is the custody coordinate of one piece of mission material — a layer
// key, a share of it, or the onion it opens — at a holder or the adversary:
// a whole column (Slot == ColumnWide) or one slot of it (SK_{c,s} and the
// slot onion). A key, its shares and its onion live at the same Ref. It is
// one 8-byte word, so the custody maps it keys hash and size like map[int].
type Ref struct {
	Column, Slot int32
}

// KeyGrant X-field discriminators for the key share scheme's direct
// column-1 key deliveries; a multipath grant carries zero.
const (
	keyGrantColumn = 0x01 // data is CK_1
	keyGrantSlot   = 0x02 // data is SK_{1,slot}
)

// Ref derives the custody coordinate of the material p carries. Slot-scoped
// are the slot onion, a slot-key share and the grant of a slot key; every
// other packet is column-wide, its Slot field only addressing the holder.
func (p Packet) Ref() Ref {
	if p.Kind == PkSlotOnion || p.Kind == PkSlotShare || p.Kind == PkKeyGrant && p.X == keyGrantSlot {
		return Ref{int32(p.Column), int32(p.Slot)}
	}
	return Ref{int32(p.Column), ColumnWide}
}

// directGrant marks the key grant p as one of the key share scheme's
// start-time column-1 deliveries: of SK_{1,p.Slot} if slotKey, else of CK_1.
func directGrant(p Packet, slotKey bool) Packet {
	p.Kind, p.X = PkKeyGrant, keyGrantColumn
	if slotKey {
		p.X = keyGrantSlot
	}
	return p
}

// direct reports whether the key grant p was built by directGrant.
func (p Packet) direct() bool { return p.X != 0 }

// AppendEncodeShareBlob appends the encoding of a Shamir share (threshold m,
// X coordinate, data) to dst: the payload of a PkColShare/PkSlotShare packet
// and the body of the tagged share blobs inside slot-onion layers — the
// inverse of ParseShare. The threshold of a Shamir sharing is not secret.
func AppendEncodeShareBlob(dst []byte, share shamir.Share) []byte {
	dst = slices.Grow(dst, 2+len(share.Data))
	dst = append(dst, share.M, share.X)
	return append(dst, share.Data...)
}

// ParseShare decodes a share blob, the payload of a PkColShare/PkSlotShare
// packet or the share ParseShareTag returns, into a share whose Data is a
// view into blob. A threshold or an X of zero is no share.
func ParseShare(blob []byte) (shamir.Share, error) {
	if len(blob) < 3 || blob[0] == 0 || blob[1] == 0 {
		return shamir.Share{}, ErrPacket
	}
	return shamir.Share{M: blob[0], X: blob[1], Data: blob[2:]}, nil
}

// Share blob tags inside slot-onion layers. A tagged blob is the tag byte,
// for a slot-key share the big-endian destination slot, then the share blob:
//
//	0xC0 | m | x | data...                   share of CK_{c+1}, for every carrier
//	0x51 | slot>>8 | slot | m | x | data...  share of SK_{c+1,slot}
const (
	shareTagColumn = 0xC0
	shareTagSlot   = 0x51
)

// AppendEncodeShareTag appends the tagged blob of share of the key at slot of
// the next column, ColumnWide for the column key — the inverse of
// ParseShareTag.
func AppendEncodeShareTag(dst []byte, slot int, share shamir.Share) []byte {
	if slot == ColumnWide {
		dst = append(slices.Grow(dst, 3+len(share.Data)), shareTagColumn)
	} else {
		dst = append(slices.Grow(dst, 5+len(share.Data)), shareTagSlot, byte(slot>>8), byte(slot))
	}
	return AppendEncodeShareBlob(dst, share)
}

// ParseShareTag decodes a tagged share blob from a slot-onion layer into the
// slot of the key it shares (ColumnWide for the column key) and the share
// blob, a view into blob that ParseShare accepts: scattering it copies
// nothing.
func ParseShareTag(blob []byte) (slot int, share []byte, err error) {
	switch {
	case len(blob) >= 1 && blob[0] == shareTagColumn:
		slot, share = ColumnWide, blob[1:]
	case len(blob) >= 3 && blob[0] == shareTagSlot:
		slot, share = int(blob[1])<<8|int(blob[2]), blob[3:]
	}
	if _, err := ParseShare(share); err != nil { // no tag, or no share
		return 0, nil, err
	}
	return slot, share, nil
}
