package dht

import (
	"bytes"
	"slices"
	"testing"

	"selfemerge/internal/testutil"
	"selfemerge/internal/transport"
)

// FuzzDecodeMessage asserts the DHT wire codec never panics on arbitrary
// datagrams — the property a UDP-exposed service lives or dies by — nor
// allocates more than a few bytes per datagram byte decoding one, and that
// anything accepted re-encodes canonically, also through the recycling
// forms senders and the receive loop use: decoding into a dirty scratch
// Message and appending after a non-empty prefix.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	ping, err := (Message{Kind: KindPing, From: Contact{ID: ID{1}, Addr: "n1"}, RPCID: 7}).AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ping)
	resp, err := (Message{
		Kind:     KindFindNodeResp,
		From:     Contact{ID: ID{2}, Addr: "n2"},
		RPCID:    9,
		Contacts: []Contact{{ID: ID{3}, Addr: "n3"}, {ID: ID{4}, Addr: "n4"}},
	}).AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp)
	app, err := (Message{Kind: KindApp, From: Contact{ID: ID{5}, Addr: "n5"}, RPCID: 11, App: []byte("payload")}).AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(app)
	// The same datagram under a reserved kind (8 was FIND_VALUE_RESP).
	f.Add(append(app[:3:3], append([]byte{8}, app[4:]...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		testutil.BoundDecodeAllocs(t, data, func() { _, _ = DecodeMessage(data) })
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		enc, err := msg.AppendEncode(nil)
		if err != nil {
			// Decoded messages may exceed encode-side limits only if the
			// decoder accepted something the encoder never produces.
			t.Fatalf("decoded message failed to encode: %v", err)
		}
		// The second trip starts from a scratch Message carrying stale
		// contacts of a previous datagram, which the decode must fully
		// overwrite, and ends behind a prefix the append must leave intact.
		again := Message{Contacts: []Contact{{ID: ID{9}, Addr: "stale"}, {ID: ID{8}, Addr: "stale2"}}}
		if err := DecodeMessageInto(&again, enc); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		prefix := []byte("prefix")
		enc2, err := again.AppendEncode(bytes.Clone(prefix))
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.HasPrefix(enc2, prefix) {
			t.Fatalf("AppendEncode clobbered its prefix: %x", enc2)
		}
		if enc2 = enc2[len(prefix):]; !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not canonical:\n  first  %x\n  second %x", enc, enc2)
		}
	})
}

// FuzzMessageContactsView holds the receive path's contact view to the
// materialised form, under the same allocation bound: for arbitrary bytes decodeMessageInto (which leaves the
// contacts on the wire) and DecodeMessage accept and reject together, the
// records the view yields are DecodeMessage's Contacts in order and re-encode
// to exactly the viewed bytes, and a scratch Message that carried a view of
// an earlier datagram keeps none of it — accepted, rejected or materialised.
func FuzzMessageContactsView(f *testing.F) {
	contacts := make([]Contact, maxContacts)
	for i := range contacts {
		contacts[i] = Contact{ID: ID{byte(i + 1)}, Addr: transport.Addr(bytes.Repeat([]byte{'a'}, i))}
	}
	for _, n := range []int{0, 1, 20, maxContacts} {
		resp, err := (Message{Kind: KindFindNodeResp, From: Contact{ID: ID{0xee}, Addr: "n"}, RPCID: 3, Contacts: contacts[:n]}).AppendEncode(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(resp)
		f.Add(resp[:len(resp)-9])                    // cut inside the last record (or the tail)
		f.Add(append(resp[:len(resp):len(resp)], 0)) // trailing byte
	}
	stale, err := (Message{Kind: KindFindNodeResp, From: Contact{ID: ID{0xdd}, Addr: "s"}, Contacts: contacts[:3]}).AppendEncode(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rx Message
		testutil.BoundDecodeAllocs(t, data, func() { _, _ = decodeMessageInto(&rx, data) })
		if _, err := decodeMessageInto(&rx, stale); err != nil || rx.contacts.n != 3 {
			t.Fatalf("stale decode: n=%d err=%v", rx.contacts.n, err)
		}
		_, viewErr := decodeMessageInto(&rx, data)
		msg, fullErr := DecodeMessage(data)
		if (viewErr == nil) != (fullErr == nil) {
			t.Fatalf("view decode err=%v, DecodeMessage err=%v", viewErr, fullErr)
		}
		if viewErr != nil {
			if rx.contacts.n != 0 || rx.contacts.region != nil {
				t.Fatalf("rejected datagram left a view of %d contacts", rx.contacts.n)
			}
			return
		}
		if len(rx.Contacts) != 0 || msg.contacts.region != nil {
			t.Fatalf("receive form materialised %d contacts; exported form kept a view: %v", len(rx.Contacts), msg.contacts.region != nil)
		}
		if rx.contacts.n != len(msg.Contacts) {
			t.Fatalf("view counts %d contacts, DecodeMessage %d", rx.contacts.n, len(msg.Contacts))
		}
		var reenc []byte
		i := 0
		for region := rx.contacts.region; len(region) > 0; i++ {
			id, addr, rest, ok := nextContact(region)
			if !ok {
				t.Fatalf("validated view breaks at record %d", i)
			}
			if i >= len(msg.Contacts) || msg.Contacts[i].ID != ID(id) || string(msg.Contacts[i].Addr) != string(addr) {
				t.Fatalf("record %d: view has %x@%q, DecodeMessage has %v", i, id, addr, msg.Contacts[min(i, len(msg.Contacts)-1)])
			}
			reenc = appendBytes(append(reenc, id...), addr)
			region = rest
		}
		if i != rx.contacts.n || !bytes.Equal(reenc, rx.contacts.region) {
			t.Fatalf("view walked %d of %d records; re-encoded %x, viewed %x", i, rx.contacts.n, reenc, rx.contacts.region)
		}
		// The exported form over the same dirty scratch: same contacts, no view.
		if err := DecodeMessageInto(&rx, data); err != nil {
			t.Fatal(err)
		}
		if rx.contacts.region != nil || !slices.Equal(rx.Contacts, msg.Contacts) {
			t.Fatalf("DecodeMessageInto over a scratch: view kept=%v contacts=%v want %v", rx.contacts.region != nil, rx.Contacts, msg.Contacts)
		}
	})
}

// FuzzTableClosest checks the closed-form bucket walk against the model's
// full sort on a table built from the seed. The target is self XOR
// targetBytes, so a run of leading zero bytes is a long shared prefix — the
// inputs that steer the walk onto the far-side sweep and across the lane
// boundaries.
func FuzzTableClosest(f *testing.F) {
	f.Add(uint64(1), []byte{}, 20)
	f.Add(uint64(2), []byte{0x80}, 1)
	f.Add(uint64(3), append(make([]byte, 7), 0x01, 0x80), 40)
	f.Add(uint64(4), append(make([]byte, 15), 0x01, 0xff, 0, 0, 0x01), 1000)
	f.Add(uint64(5), bytes.Repeat([]byte{0xff}, IDBytes), -1)
	f.Fuzz(func(t *testing.T, seed uint64, targetBytes []byte, count int) {
		k := 1 + int(seed%40)
		table, model, _ := newStructuredTable(seed, k)
		checkLayout(t, table)
		target := table.self
		for i := range target {
			if i < len(targetBytes) {
				target[i] ^= targetBytes[i]
			}
		}
		checkClosest(t, table, model, target, count)
	})
}
