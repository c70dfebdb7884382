package onion

import (
	"bytes"
	"slices"
	"testing"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/stats"
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
		testutil.BoundDecodeAllocs(t, plain, func() { _, _ = decodeLayer(plain, nil) })
		l, err := decodeLayer(plain, nil)
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

// FuzzOpenView drives the holder's peel path, open then view, over arbitrary
// plaintext sealed under a known key: Open must accept exactly what
// decodeLayer accepts and hand back the plaintext, and View must decode it as
// decodeLayer does — into the caller's storage when it has room for every
// hop and share, allocating nothing, and into an array of its own when it is
// one item short, within the decode bound.
func FuzzOpenView(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff})
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
	key := seal.Key{7}
	sealer, err := seal.NewSealerRand(key, stats.NewByteStream(1))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, plain []byte) {
		wrapped, err := sealer.Encrypt(plain, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := decodeLayer(plain, nil)
		opened, err := Open(key, wrapped)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Open: %v, decodeLayer: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(opened, plain) {
			t.Fatalf("Open returned %x, sealed %x", opened, plain)
		}
		n := len(want.NextHops) + len(want.Shares)
		for _, room := range []int{n, n - 1} {
			if room < 0 {
				continue
			}
			items := make([][]byte, 0, room)
			var got Layer
			testutil.BoundDecodeAllocs(t, opened, func() { got, err = View(opened, items) })
			if err != nil {
				t.Fatalf("View of an opened layer: %v", err)
			}
			if !sameLayer(got, want) {
				t.Fatalf("View with room for %d of %d items = %+v, want %+v", room, n, got, want)
			}
			if room == n {
				if allocs := testing.AllocsPerRun(10, func() { _, _ = View(opened, items) }); allocs != 0 {
					t.Fatalf("View into room for all %d items allocates %.0f times", n, allocs)
				}
			}
		}
	})
}

// sameLayer reports whether two layers hold the same bytes, item by item.
func sameLayer(a, b Layer) bool {
	return slices.EqualFunc(a.NextHops, b.NextHops, bytes.Equal) &&
		slices.EqualFunc(a.Shares, b.Shares, bytes.Equal) &&
		bytes.Equal(a.Payload, b.Payload) && bytes.Equal(a.Rest, b.Rest)
}
