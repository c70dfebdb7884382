package protocol

import (
	"slices"
	"testing"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
)

// TestForwardNeverEarly: a holder resolves its forward's owners one lead
// ahead of the package's deadline, but what it sends leaves at HoldUntil and
// not before. For a held main onion, slot onion and central package, each
// with its key in hand, the watcher has seen nothing one fabric link (10 ms,
// simnet's default) after HoldUntil − 1ns, and has the forward one link after
// HoldUntil.
func TestForwardNeverEarly(t *testing.T) {
	const link = 10 * time.Millisecond
	watcher := dht.IDFromKey([]byte("watcher"))
	build := func(t *testing.T, layers []onion.Layer, keys ...seal.Key) []byte {
		t.Helper()
		wrapped, err := onion.Build(layers, keys)
		if err != nil {
			t.Fatal(err)
		}
		return wrapped
	}
	for _, tc := range []struct {
		name string
		// custody is what the holder is handed, all due at hold.
		custody func(t *testing.T, hold int64) []Packet
		want    []PacketKind
	}{
		{"central", func(t *testing.T, hold int64) []Packet {
			return []Packet{{Kind: PkCentral, Column: 1, HoldUntil: hold, Target: watcher, Data: []byte("secret")}}
		}, []PacketKind{PkSecret}},
		{"main onion", func(t *testing.T, hold int64) []Packet {
			key := seal.Key{1}
			grant := Packet{Kind: PkKeyGrant, Column: 1, HoldUntil: hold, Step: int64(time.Hour), Data: key[:]}
			main := grant
			main.Kind, main.Target = PkMainOnion, watcher
			main.Data = build(t, []onion.Layer{{NextHops: [][]byte{watcher[:]}}, {NextHops: [][]byte{watcher[:]}, Payload: []byte("secret")}}, key, seal.Key{2})
			return []Packet{grant, main}
		}, []PacketKind{PkMainOnion}},
		{"slot onion", func(t *testing.T, hold int64) []Packet {
			key := seal.Key{3}
			grant := directGrant(Packet{Column: 1, Slot: 0, Width: 1, HoldUntil: hold, Step: int64(time.Hour), Data: key[:]}, true)
			slot := Packet{Kind: PkSlotOnion, Column: 1, Slot: 0, HoldUntil: hold, Step: int64(time.Hour)}
			slot.Data = build(t, []onion.Layer{
				{NextHops: [][]byte{watcher[:]}, Shares: [][]byte{AppendEncodeShareTag(nil, ColumnWide, keyShare)}},
				{NextHops: [][]byte{watcher[:]}},
			}, key, seal.Key{4})
			return []Packet{grant, slot}
		}, []PacketKind{PkColShare, PkSlotOnion}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var seen []Packet
			clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)
			hold := clock.Now().Add(time.Hour)
			for _, pkt := range tc.custody(t, hold.UnixNano()) {
				pkt.Mission = MissionID{0x07}
				host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
			}
			clock.RunUntil(hold.Add(-time.Nanosecond).Add(link))
			if len(seen) != 0 {
				t.Fatalf("%d packets left before HoldUntil, the first a %v", len(seen), seen[0].Kind)
			}
			clock.RunUntil(hold.Add(link))
			var got []PacketKind
			for _, pkt := range seen {
				got = append(got, pkt.Kind)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("one link after HoldUntil the watcher has %v, want %v", got, tc.want)
			}
		})
	}
}
