package dht

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"selfemerge/internal/transport"
)

// Kind enumerates the wire message types.
type Kind uint8

// Message kinds. Request/response pairs share an RPCID. Kinds 5–8 were
// STORE, STORE_ACK, FIND_VALUE and FIND_VALUE_RESP in wire version 1; they
// stay reserved, and decoding rejects them.
const (
	KindPing Kind = iota + 1
	KindPong
	KindFindNode
	KindFindNodeResp
	_
	_
	_
	_
	KindApp
	KindAppAck
)

// kindNames names every kind of this wire version: a kind without a name is
// not one, and decoding rejects it.
var kindNames = [...]string{KindPing: "PING", KindPong: "PONG", KindFindNode: "FIND_NODE",
	KindFindNodeResp: "FIND_NODE_RESP", KindApp: "APP", KindAppAck: "APP_ACK"}

// String names the kind for logs.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

const (
	wireMagic   = 0x5345 // "SE"
	wireVersion = 2
	maxContacts = 64
	maxApp      = transport.MaxDatagram - 256
)

// ErrWire is returned for any malformed datagram.
var ErrWire = errors.New("dht: malformed message")

// Message is the single wire envelope for all DHT traffic.
type Message struct {
	Kind  Kind
	RPCID uint64
	From  Contact

	Target ID // FindNode: the searched identifier
	// Contacts is a FindNodeResp's answer: the K contacts the responder
	// tracks nearest the target, grouped by bucket, nearest bucket first.
	// Within a group the order is the table's, except in the one bucket the
	// count cuts, which is sorted nearest first (see DESIGN.md, "Closest-K
	// selection"); a receiver that needs them ranked ranks them.
	Contacts []Contact
	App      []byte // App: opaque protocol payload

	// contacts is the receive path's form of Contacts: see decodeMessageInto.
	contacts contactsView
}

// AppendEncode appends the wire form to buf and returns the extended slice —
// the allocation-free form for senders that recycle wire buffers.
func (m Message) AppendEncode(buf []byte) ([]byte, error) {
	if len(m.Contacts) > maxContacts {
		return nil, fmt.Errorf("dht: %d contacts exceeds wire limit", len(m.Contacts))
	}
	if len(m.App) > maxApp {
		return nil, fmt.Errorf("dht: payload exceeds wire limit")
	}
	buf = appendHeader(buf, m.Kind, m.RPCID, &m.From, &m.Target)
	buf = append(buf, byte(len(m.Contacts)))
	for i := range m.Contacts {
		buf = appendContact(buf, &m.Contacts[i].ID, m.Contacts[i].Addr)
	}
	return appendBytes32(buf, m.App), nil
}

// appendHeader appends every field that precedes the contact count: the
// part of the layout AppendEncode shares with the replies written straight
// from the routing table (appendClosestReply).
func appendHeader(buf []byte, kind Kind, rpcID uint64, from *Contact, target *ID) []byte {
	buf = binary.BigEndian.AppendUint16(buf, wireMagic)
	buf = append(buf, wireVersion, byte(kind))
	buf = binary.BigEndian.AppendUint64(buf, rpcID)
	buf = append(buf, from.ID[:]...)
	buf = appendBytes(buf, []byte(from.Addr))
	return append(buf, target[:]...)
}

// appendClosestReply appends the answer to a FIND_NODE: the wire form of the
// KindFindNodeResp Message with Contacts = the K contacts t tracks nearest
// target, in the order Message.Contacts documents. The records go from the
// table's buckets straight into buf; the count byte is written once the walk
// knows it.
func appendClosestReply(buf []byte, rpcID uint64, from *Contact, t *Table, target ID) []byte {
	buf = appendHeader(buf, KindFindNodeResp, rpcID, from, &ID{})
	at := len(buf)
	buf, n := t.appendClosestWire(append(buf, 0), target, bucketK)
	buf[at] = byte(n)
	return appendBytes32(buf, nil)
}

// appendContact appends one contact record — ID ‖ uint16 address length ‖
// address bytes — the one writer of the layout nextContact reads. The record
// is reserved whole, one capacity check. The ID is copied as three words:
// the array copy *(*ID)(rec) = *id compiles to a memmove call, which made a
// 20-contact encode a quarter slower.
func appendContact(buf []byte, id *ID, addr transport.Addr) []byte {
	at, end := len(buf), len(buf)+IDBytes+2+len(addr)
	if end > cap(buf) {
		buf = slices.Grow(buf, end-at)
	}
	rec := buf[at:end]
	binary.LittleEndian.PutUint64(rec, binary.LittleEndian.Uint64(id[0:8]))
	binary.LittleEndian.PutUint64(rec[8:], binary.LittleEndian.Uint64(id[8:16]))
	binary.LittleEndian.PutUint32(rec[16:], binary.LittleEndian.Uint32(id[16:20]))
	binary.BigEndian.PutUint16(rec[IDBytes:], uint16(len(addr)))
	copy(rec[IDBytes+2:], addr)
	return buf[:end]
}

// DecodeMessage parses a wire datagram. The App and contact address fields
// alias data, so they are valid only as long as the input buffer is.
func DecodeMessage(data []byte) (Message, error) {
	var m Message
	if err := DecodeMessageInto(&m, data); err != nil {
		return Message{}, err
	}
	return m, nil
}

// DecodeMessageInto parses a wire datagram into m, reusing m's Contacts
// backing array — the allocation-free form for callers that recycle a
// scratch Message. All other fields are overwritten; on error m is left in
// an unspecified state. Like DecodeMessage, byte-slice fields alias data.
func DecodeMessageInto(m *Message, data []byte) error {
	fromAddr, err := decodeMessageInto(m, data)
	if err != nil {
		return err
	}
	m.From.Addr = transport.Addr(fromAddr)
	if cap(m.Contacts) < m.contacts.n {
		m.Contacts = make([]Contact, 0, m.contacts.n)
	}
	for region := m.contacts.region; len(region) > 0; {
		id, addr, rest, _ := nextContact(region)
		m.Contacts = append(m.Contacts, Contact{ID: ID(id), Addr: transport.Addr(addr)})
		region = rest
	}
	m.contacts = contactsView{}
	return nil
}

// contactsView is a response's contact list still on the wire: n records of
// ID ‖ uint16 address length ‖ address bytes, already validated, so
// nextContact never fails inside region. It aliases the datagram and is
// valid only as long as that buffer is.
type contactsView struct {
	n      int
	region []byte
}

// nextContact splits the first record off a contact region — the one reader
// of the layout appendContact writes. id and addr alias b; ok is false when b
// ends inside the record.
func nextContact(b []byte) (id, addr, rest []byte, ok bool) {
	if len(b) < IDBytes+2 {
		return nil, nil, nil, false
	}
	end := IDBytes + 2 + int(binary.BigEndian.Uint16(b[IDBytes:]))
	if len(b) < end {
		return nil, nil, nil, false
	}
	return b[:IDBytes], b[IDBytes+2 : end], b[end:], true
}

// decodeMessageInto is the decode core and the receive-loop form. It checks
// the contact list and leaves it on the wire as m.contacts instead of filling
// m.Contacts (emptied): a lookup ranks and dedupes the records where they
// lie and copies out only the ones it keeps. It also leaves From.Addr empty
// and hands back the claimed bytes: the receive loop trusts the socket-level
// source address over the claimed one, so it neither converts them (an
// allocation per datagram) nor admits them into the bounded address book.
func decodeMessageInto(m *Message, data []byte) (fromAddr []byte, err error) {
	m.Contacts = m.Contacts[:0]
	m.contacts = contactsView{}
	r := wireReader{buf: data}
	magic, err := r.uint16()
	if err != nil || magic != wireMagic {
		return nil, ErrWire
	}
	version, err := r.byte()
	if err != nil || version != wireVersion {
		return nil, ErrWire
	}
	kindByte, err := r.byte()
	if err != nil {
		return nil, ErrWire
	}
	m.Kind = Kind(kindByte)
	if int(m.Kind) >= len(kindNames) || kindNames[m.Kind] == "" {
		return nil, ErrWire // unknown, or one of the reserved kinds 5–8
	}
	if m.RPCID, err = r.uint64(); err != nil {
		return nil, ErrWire
	}
	if m.From.ID, err = r.id(); err != nil {
		return nil, ErrWire
	}
	if fromAddr, err = r.bytes16(); err != nil {
		return nil, ErrWire
	}
	m.From.Addr = ""
	if m.Target, err = r.id(); err != nil {
		return nil, ErrWire
	}
	contactCount, err := r.byte()
	if err != nil || int(contactCount) > maxContacts {
		return nil, ErrWire
	}
	rest := data[r.off:]
	for i := 0; i < int(contactCount); i++ {
		var ok bool
		if _, _, rest, ok = nextContact(rest); !ok {
			return nil, ErrWire
		}
	}
	end := len(data) - len(rest)
	view := contactsView{n: int(contactCount), region: data[r.off:end]}
	r.off = end
	if m.App, err = r.bytes32(); err != nil {
		return nil, ErrWire
	}
	if r.remaining() != 0 {
		return nil, ErrWire
	}
	m.contacts = view
	return fromAddr, nil
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	return append(buf, b...)
}

func appendBytes32(buf, b []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

type wireReader struct {
	buf []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.buf) - r.off }

func (r *wireReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, ErrWire
	}
	b := r.buf[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) uint16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, ErrWire
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *wireReader) uint64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrWire
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *wireReader) id() (ID, error) {
	if r.remaining() < IDBytes {
		return ID{}, ErrWire
	}
	var id ID
	copy(id[:], r.buf[r.off:])
	r.off += IDBytes
	return id, nil
}

func (r *wireReader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrWire
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *wireReader) bytes16() ([]byte, error) {
	n, err := r.uint16()
	if err != nil {
		return nil, err
	}
	return r.take(int(n))
}

func (r *wireReader) bytes32() ([]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	if n > maxApp {
		return nil, ErrWire
	}
	return r.take(int(n))
}

func (r *wireReader) uint32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrWire
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}
