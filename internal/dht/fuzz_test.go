package dht

import (
	"bytes"
	"testing"
)

// FuzzDecodeMessage asserts the DHT wire codec never panics on arbitrary
// datagrams — the property a UDP-exposed service lives or dies by — and
// that anything accepted re-encodes canonically.
func FuzzDecodeMessage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	ping, err := (Message{Kind: KindPing, From: Contact{ID: ID{1}, Addr: "n1"}, RPCID: 7}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ping)
	resp, err := (Message{
		Kind:     KindFindNodeResp,
		From:     Contact{ID: ID{2}, Addr: "n2"},
		RPCID:    9,
		Contacts: []Contact{{ID: ID{3}, Addr: "n3"}, {ID: ID{4}, Addr: "n4"}},
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp)
	val, err := (Message{Kind: KindFindValueResp, From: Contact{ID: ID{5}, Addr: "n5"}, Found: true, Value: []byte("v")}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(val)

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		enc, err := msg.Encode()
		if err != nil {
			// Decoded messages may exceed encode-side limits only if the
			// decoder accepted something the encoder never produces.
			t.Fatalf("decoded message failed to encode: %v", err)
		}
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		enc2, err := again.Encode()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not canonical:\n  first  %x\n  second %x", enc, enc2)
		}
	})
}

// FuzzMessageAppendEncode asserts the append-style wire codec and the
// scratch-reusing decoder are exactly the classic pair: AppendEncode onto an
// arbitrary prefix preserves the prefix and appends Encode's bytes, and
// DecodeMessageInto over a dirty scratch Message equals DecodeMessage.
func FuzzMessageAppendEncode(f *testing.F) {
	ping, err := (Message{Kind: KindPing, From: Contact{ID: ID{1}, Addr: "n1"}, RPCID: 7}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ping, []byte{})
	resp, err := (Message{
		Kind:     KindFindNodeResp,
		From:     Contact{ID: ID{2}, Addr: "n2"},
		Contacts: []Contact{{ID: ID{3}, Addr: "n3"}},
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(resp, []byte("prefix"))
	f.Fuzz(func(t *testing.T, data, prefix []byte) {
		msg, err := DecodeMessage(data)
		if err != nil {
			return
		}
		classic, err := msg.Encode()
		if err != nil {
			t.Fatalf("decoded message failed to encode: %v", err)
		}
		appended, err := msg.AppendEncode(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendEncode failed: %v", err)
		}
		if !bytes.HasPrefix(appended, prefix) {
			t.Fatalf("AppendEncode clobbered its prefix: %x", appended)
		}
		if !bytes.Equal(appended[len(prefix):], classic) {
			t.Fatalf("AppendEncode diverged from Encode:\n  append %x\n  encode %x", appended[len(prefix):], classic)
		}
		// Decode into a scratch Message carrying stale contacts from a
		// previous datagram: the pooled-decode path must fully overwrite it.
		scratch := Message{Contacts: []Contact{{ID: ID{9}, Addr: "stale"}, {ID: ID{8}, Addr: "stale2"}}}
		if err := DecodeMessageInto(&scratch, classic); err != nil {
			t.Fatalf("DecodeMessageInto failed: %v", err)
		}
		round, err := scratch.Encode()
		if err != nil {
			t.Fatalf("scratch re-encode failed: %v", err)
		}
		if !bytes.Equal(round, classic) {
			t.Fatalf("scratch decode diverged:\n  scratch %x\n  classic %x", round, classic)
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
		target := table.self
		for i := range target {
			if i < len(targetBytes) {
				target[i] ^= targetBytes[i]
			}
		}
		checkClosest(t, table, model, target, count)
	})
}
