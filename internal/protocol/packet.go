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
	Column  uint16 // 1-based holder column
	Slot    uint16 // 0-based slot within the column (path index)
	// Width is the number of holder slots in this packet's column. Carried
	// on PkKeyGrant so that any surviving custodian can re-grant the column
	// key to every slot of its column during churn repair; zero elsewhere.
	Width uint16
	X     uint8 // Shamir share index for *Share kinds
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

// AppendEncodeShareBlob appends the encoding of a Shamir share (X coordinate
// plus data) to dst: the payload of a PkColShare/PkSlotShare packet and the
// body of the tagged share blobs inside slot-onion layers — the inverse of
// ParseShare.
func AppendEncodeShareBlob(dst []byte, x uint8, data []byte) []byte {
	dst = slices.Grow(dst, 1+len(data))
	dst = append(dst, x)
	return append(dst, data...)
}

// parseShareBlob splits a share blob.
func parseShareBlob(blob []byte) (x uint8, data []byte, err error) {
	if len(blob) < 2 {
		return 0, nil, ErrPacket
	}
	return blob[0], blob[1:], nil
}

// ParseShare decodes the payload of a PkColShare/PkSlotShare packet into
// its Shamir coordinates. Exported for the adversary's collector.
func ParseShare(blob []byte) (x uint8, data []byte, err error) {
	return parseShareBlob(blob)
}

// ShareKind discriminates the tagged share blobs embedded in slot-onion
// layers.
type ShareKind uint8

// Share kinds inside onion layers.
const (
	ShareKindColumn ShareKind = iota + 1
	ShareKindSlot
)

// ParseShareTag decodes a tagged share blob from a slot-onion layer:
// column-key shares carry (kind=column, x, data); slot-key shares
// additionally carry the destination slot.
func ParseShareTag(blob []byte) (kind ShareKind, slot int, x uint8, data []byte, err error) {
	if len(blob) < 2 {
		return 0, 0, 0, nil, ErrPacket
	}
	switch blob[0] {
	case shareTagColumn:
		x, data, err = parseShareBlob(blob[1:])
		return ShareKindColumn, 0, x, data, err
	case shareTagSlot:
		if len(blob) < 5 {
			return 0, 0, 0, nil, ErrPacket
		}
		slot = int(blob[1])<<8 | int(blob[2])
		x, data, err = parseShareBlob(blob[3:])
		return ShareKindSlot, slot, x, data, err
	default:
		return 0, 0, 0, nil, ErrPacket
	}
}

// KeyGrantSlotMarker is the X-field discriminator marking a PkKeyGrant as
// carrying a slot key (the key share scheme's direct column-1 deliveries).
const KeyGrantSlotMarker = keyGrantSlot
