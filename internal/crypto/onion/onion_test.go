package onion

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"selfemerge/internal/crypto/seal"
)

func mustKeys(t *testing.T, n int) []seal.Key {
	t.Helper()
	keys := make([]seal.Key, n)
	for i := range keys {
		k, err := seal.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	return keys
}

func TestBuildPeelThreeLayers(t *testing.T) {
	keys := mustKeys(t, 3)
	layers := []Layer{
		{NextHops: [][]byte{[]byte("holder-1-2"), []byte("holder-2-2")}, Shares: [][]byte{[]byte("share-a")}},
		{NextHops: [][]byte{[]byte("holder-1-3")}, Shares: [][]byte{[]byte("share-b"), []byte("share-c")}},
		{Payload: []byte("the secret key")},
	}
	wrapped, err := Build(layers, keys)
	if err != nil {
		t.Fatal(err)
	}

	l0, err := Peel(keys[0], wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(l0.NextHops) != 2 || string(l0.NextHops[0]) != "holder-1-2" {
		t.Errorf("layer 0 hops: %q", l0.NextHops)
	}
	if len(l0.Shares) != 1 || string(l0.Shares[0]) != "share-a" {
		t.Errorf("layer 0 shares: %q", l0.Shares)
	}
	if l0.Payload != nil {
		t.Errorf("layer 0 has payload %q", l0.Payload)
	}
	if l0.Rest == nil {
		t.Fatal("layer 0 missing rest")
	}

	l1, err := Peel(keys[1], l0.Rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Shares) != 2 || string(l1.Shares[1]) != "share-c" {
		t.Errorf("layer 1 shares: %q", l1.Shares)
	}

	l2, err := Peel(keys[2], l1.Rest)
	if err != nil {
		t.Fatal(err)
	}
	if string(l2.Payload) != "the secret key" {
		t.Errorf("payload = %q", l2.Payload)
	}
	if l2.Rest != nil {
		t.Error("innermost layer has rest")
	}
}

func TestPeelOutOfOrderFails(t *testing.T) {
	keys := mustKeys(t, 2)
	wrapped, err := Build([]Layer{
		{NextHops: [][]byte{[]byte("n")}},
		{Payload: []byte("s")},
	}, keys)
	if err != nil {
		t.Fatal(err)
	}
	// The inner key must not open the outer layer: onion order is enforced.
	if _, err := Peel(keys[1], wrapped); err == nil {
		t.Error("inner key opened outer layer")
	}
}

func TestSingleLayer(t *testing.T) {
	keys := mustKeys(t, 1)
	wrapped, err := Build([]Layer{{Payload: []byte("direct")}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Peel(keys[0], wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if string(l.Payload) != "direct" || l.Rest != nil {
		t.Errorf("layer = %+v", l)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, nil); err != ErrNoLayers {
		t.Errorf("no layers: %v", err)
	}
	keys := mustKeys(t, 2)
	if _, err := Build([]Layer{{Payload: []byte("x")}}, keys); err == nil {
		t.Error("layer/key count mismatch accepted")
	}
}

func TestTamperedOnionRejected(t *testing.T) {
	keys := mustKeys(t, 2)
	wrapped, err := Build([]Layer{
		{NextHops: [][]byte{[]byte("n")}},
		{Payload: []byte("s")},
	}, keys)
	if err != nil {
		t.Fatal(err)
	}
	wrapped[len(wrapped)/2] ^= 1
	if _, err := Peel(keys[0], wrapped); err == nil {
		t.Error("tampered onion accepted")
	}
}

func TestEmptySections(t *testing.T) {
	keys := mustKeys(t, 1)
	wrapped, err := Build([]Layer{{NextHops: [][]byte{}, Shares: nil, Payload: []byte("p")}}, keys)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Peel(keys[0], wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.NextHops) != 0 || len(l.Shares) != 0 {
		t.Errorf("expected empty sections: %+v", l)
	}
}

func TestRoundTripProperty(t *testing.T) {
	keys := mustKeys(t, 2)
	err := quick.Check(func(hopA, hopB, share, payload []byte) bool {
		if len(payload) == 0 {
			payload = []byte{1}
		}
		wrapped, err := Build([]Layer{
			{NextHops: [][]byte{hopA, hopB}, Shares: [][]byte{share}},
			{Payload: payload},
		}, keys)
		if err != nil {
			return false
		}
		l0, err := Peel(keys[0], wrapped)
		if err != nil || len(l0.NextHops) != 2 {
			return false
		}
		if !bytes.Equal(l0.NextHops[0], hopA) || !bytes.Equal(l0.NextHops[1], hopB) {
			return false
		}
		if len(l0.Shares) != 1 || !bytes.Equal(l0.Shares[0], share) {
			return false
		}
		l1, err := Peel(keys[1], l0.Rest)
		return err == nil && bytes.Equal(l1.Payload, payload)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMalformed feeds decodeLayer layouts it must reject, and bounds
// what a rejection allocates: a list count is checked against the bytes left
// before anything is sized by it, so a 4-byte layer claiming 2^24-1 hops is
// refused without the 384 MiB a count-sized list would take.
func TestDecodeMalformed(t *testing.T) {
	for _, raw := range [][]byte{
		{},
		{0, 0, 0},
		{0xff, 0xff, 0xff, 0xff},
		{0, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0xff, 0xff, 0xff},
		{0, 0, 0, 1, 0, 0, 0, 200, 1},
	} {
		if _, err := decodeLayer(raw, nil); err == nil {
			t.Errorf("decodeLayer(%v) accepted", raw)
		}
		// The heap counters are process-wide, so the bound holds for the
		// mean of several decodes.
		const decodes = 16
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range decodes {
			_, _ = decodeLayer(raw, nil)
		}
		runtime.ReadMemStats(&after)
		if grew := (after.TotalAlloc - before.TotalAlloc) / decodes; grew > 1024 {
			t.Errorf("decodeLayer(%v) allocated %d bytes before refusing it", raw, grew)
		}
	}
}

// TestPeelSealerWrongKeyAllocatesNoError pins the cost of a failed open, the
// common case of share recovery's candidate search: PeelSealer allocates
// what the AEAD open itself does and no error value, and its error still
// matches seal.ErrDecrypt.
func TestPeelSealerWrongKeyAllocatesNoError(t *testing.T) {
	keys := mustKeys(t, 2)
	wrapped, err := Build([]Layer{{Payload: []byte("p")}}, keys[:1])
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := seal.NewSealer(keys[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PeelSealer(wrong, wrapped); !errors.Is(err, seal.ErrDecrypt) {
		t.Fatalf("wrong-key peel: err = %v, want seal.ErrDecrypt", err)
	}
	open := testing.AllocsPerRun(100, func() { _, _ = wrong.Decrypt(wrapped, nil) })
	peel := testing.AllocsPerRun(100, func() { _, _ = PeelSealer(wrong, wrapped) })
	if peel != open {
		t.Fatalf("a wrong-key peel allocates %.0f times, the open under it %.0f", peel, open)
	}
}

func TestLayerSizeGrowth(t *testing.T) {
	// Each wrap adds only the seal overhead plus encoding; verify the onion
	// does not balloon (important for DHT message sizes).
	keys := mustKeys(t, 5)
	layers := make([]Layer, 5)
	for i := 0; i < 4; i++ {
		layers[i] = Layer{NextHops: [][]byte{make([]byte, 20)}}
	}
	layers[4] = Layer{Payload: make([]byte, 32)}
	wrapped, err := Build(layers, keys)
	if err != nil {
		t.Fatal(err)
	}
	// 5 seal overheads + 5 encodings (~50 bytes each) + payload + hops.
	if len(wrapped) > 1024 {
		t.Errorf("5-layer onion is %d bytes; expected well under 1 KiB", len(wrapped))
	}
}
