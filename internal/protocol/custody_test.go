package protocol_test

import (
	"testing"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
)

// TestPacketRef is the Packet.Ref table: every kind crossed with the
// key-grant X markers (0 multipath, 1 direct CK_1, 2 direct SK_{1,slot}) and
// two values that are no marker. Slot-scoped are the slot onion, a slot-key
// share and the grant marked 2; everything else is column-wide.
func TestPacketRef(t *testing.T) {
	for kind := protocol.PkCentral; kind <= protocol.PkSecret; kind++ {
		for _, x := range []uint8{0, 1, 2, 3, 255} {
			pkt := protocol.Packet{Kind: kind, Column: 4, Slot: 7, X: x}
			want := protocol.Ref{Column: 4, Slot: protocol.ColumnWide}
			if kind == protocol.PkSlotOnion || kind == protocol.PkSlotShare ||
				kind == protocol.PkKeyGrant && x == 2 {
				want.Slot = 7
			}
			if got := pkt.Ref(); got != want {
				t.Errorf("%v X=%d: Ref() = %+v, want %+v", kind, x, got, want)
			}
		}
	}
}

// TestScatterSharesAliasPeeledLayer guards the scatter path's payload cost:
// the share a holder forwards out of a peeled slot-onion layer is
// ParseShareTag's view into that layer, so scattering allocates no per-share
// payload.
func TestScatterSharesAliasPeeledLayer(t *testing.T) {
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	hop := dht.IDFromKey([]byte("next"))
	data := []byte("thirty-two bytes of share data..")
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{hop[:]}, Shares: [][]byte{
		protocol.AppendEncodeShareTag(nil, protocol.ColumnWide, shamir.Share{M: 2, X: 3, Data: data}),
		protocol.AppendEncodeShareTag(nil, 0, shamir.Share{M: 2, X: 4, Data: data}),
		protocol.AppendEncodeShareTag(nil, 65535, shamir.Share{M: 2, X: 5, Data: data}),
	}}}, []seal.Key{key})
	if err != nil {
		t.Fatal(err)
	}
	layer, err := onion.Peel(key, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range []int{1, 3, 3} {
		blob := layer.Shares[i]
		if _, share, err := protocol.ParseShareTag(blob); err != nil || &share[0] != &blob[off] {
			t.Fatalf("share %d: ParseShareTag = (%x, %v), want a view of the layer at offset %d", i, share, err, off)
		}
	}
	var payload int
	if allocs := testing.AllocsPerRun(100, func() {
		for _, blob := range layer.Shares {
			_, share, _ := protocol.ParseShareTag(blob)
			payload += len(share)
		}
	}); allocs != 0 {
		t.Fatalf("untagging a layer's shares allocates %.0f times per layer, want 0", allocs)
	}
}
