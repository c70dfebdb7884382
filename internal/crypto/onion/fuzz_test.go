package onion

import (
	"bytes"
	"testing"

	"selfemerge/internal/testutil"
)

// FuzzDecodeLayer feeds decodeLayer arbitrary plaintext: what a holder
// decodes after opening a layer sealed by anyone granted its key, a Sybil
// in a joint column included. It must not panic, it must allocate no more
// than a small multiple of its input — a layer's counts and lengths are
// checked against the bytes that carry them before anything is sized by
// them — and a layer it accepts must encode back to the same bytes.
func FuzzDecodeLayer(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff}) // a 2^24-1 hop list in four bytes
	f.Add([]byte{})
	for _, l := range []Layer{
		{NextHops: [][]byte{[]byte("hop-a"), []byte("hop-b")}, Shares: [][]byte{{0xC0, 1, 2}}, Rest: []byte("inner")},
		{NextHops: [][]byte{}, Payload: []byte("secret")},
	} {
		plain, err := appendLayer(nil, l)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(plain)
	}
	f.Fuzz(func(t *testing.T, plain []byte) {
		testutil.BoundDecodeAllocs(t, plain, func() { _, _ = decodeLayer(plain) })
		l, err := decodeLayer(plain)
		if err != nil {
			return
		}
		again, err := appendLayer(nil, l)
		if err != nil {
			t.Fatalf("accepted layer does not encode: %v", err)
		}
		if !bytes.Equal(again, plain) {
			t.Fatalf("accepted layer encodes to %x, decoded from %x", again, plain)
		}
	})
}
