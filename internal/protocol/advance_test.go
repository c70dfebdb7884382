package protocol

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/sim"
	"selfemerge/internal/transport/simnet"
)

// keyShare is a share a holder keeps: it names its threshold and X, and its
// data is a key's length.
var keyShare = shamir.Share{M: 2, X: 1, Data: bytes.Repeat([]byte{7}, seal.KeySize)}

// appFunc is a function dht.AppHandler.
type appFunc func(from dht.Contact, payload []byte)

func (f appFunc) HandleApp(from dht.Contact, payload []byte) { f(from, payload) }

// newWatchedHolder boots a two-node network on a fresh simulator: a holder
// running a host with cfg (its Clock filled in) and a watcher that appends
// every protocol packet it receives to seen. With two replicas the watcher is
// an owner of everything the holder sends.
func newWatchedHolder(t *testing.T, cfg HostConfig, seen *[]Packet) (*sim.Simulator, *Host, *dht.Node) {
	t.Helper()
	clock := sim.NewSimulator()
	fabric := simnet.New(clock, simnet.Config{Seed: 1})
	cfg.Clock = clock
	host, err := NewHost(cfg, dht.Config{
		ID: dht.IDFromKey([]byte("holder")), Endpoint: fabric.Endpoint("holder"), Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := host.Node()
	watcher, err := dht.NewNode(dht.Config{
		ID: dht.IDFromKey([]byte("watcher")), Endpoint: fabric.Endpoint("watcher"), Clock: clock,
		OnApp: appFunc(func(_ dht.Contact, payload []byte) {
			if pkt, err := DecodePacket(payload); err == nil {
				*seen = append(*seen, pkt)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	watcher.Bootstrap([]dht.Contact{node.Contact()}, nil)
	clock.RunFor(time.Minute)
	return clock, host, node
}

// TestAdvanceOrder pins the order of advance's one sorted custody list:
// whatever order custody arrived in, a holder forwards its main onions by
// column first, then its slot onions by (column, slot) — the order of the
// per-scope loops the list replaced. The network is the holder and one
// watcher, and the holder sends two replicas of everything, so the watcher
// sees every forward.
func TestAdvanceOrder(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, &seen)
	var err error

	mission := MissionID{0xAD}
	hops := [][]byte{make([]byte, dht.IDBytes), make([]byte, dht.IDBytes)}
	hops[1][0] = 1
	custody := []Packet{
		{Kind: PkMainOnion, Column: 2},
		{Kind: PkMainOnion, Column: 1},
		{Kind: PkSlotOnion, Column: 1, Slot: 1},
		{Kind: PkSlotOnion, Column: 1, Slot: 0},
	}
	keys := make(map[Ref]seal.Key)
	for _, pkt := range custody {
		// Two layers each, so every forward sends the rest one column on; a
		// slot onion's outer layer also scatters one column-key share.
		layers := []onion.Layer{{NextHops: hops[:1]}, {NextHops: hops[:1]}}
		if pkt.Kind == PkSlotOnion {
			layers[0] = onion.Layer{NextHops: hops, Shares: [][]byte{AppendEncodeShareTag(nil, ColumnWide, keyShare)}}
		}
		layerKeys := make([]seal.Key, len(layers))
		for i := range layerKeys {
			if layerKeys[i], err = seal.NewKey(); err != nil {
				t.Fatal(err)
			}
		}
		pkt.Mission, pkt.Step = mission, int64(time.Hour)
		pkt.HoldUntil = clock.Now().Add(time.Hour).UnixNano()
		if pkt.Data, err = onion.Build(layers, layerKeys); err != nil {
			t.Fatal(err)
		}
		keys[pkt.Ref()] = layerKeys[0]
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	}

	// Every key and every hold deadline lands before one advance. The
	// forwards leave at their packages' HoldUntil, an hour on, so the clock
	// runs past it.
	ms := host.missions[mission]
	for _, rec := range ms.refs {
		rec.key, rec.hasKey = keys[rec.ref], true
		rec.hold.due = true
	}
	host.advance(mission)
	clock.RunFor(time.Hour + time.Minute)

	type hop struct {
		kind         PacketKind
		column, slot uint16
	}
	var got []hop
	for _, pkt := range seen {
		got = append(got, hop{pkt.Kind, pkt.Column, pkt.Slot})
	}
	// Every forward is due at one instant, an hour on, and sends due in one
	// instant leave in the order they were made: advance's custody order.
	want := []hop{
		{PkMainOnion, 2, 0},                                         // from (1, wide)
		{PkMainOnion, 3, 0},                                         // from (2, wide)
		{PkColShare, 2, 0}, {PkColShare, 2, 1}, {PkSlotOnion, 2, 0}, // from (1, 0)
		{PkColShare, 2, 0}, {PkColShare, 2, 1}, {PkSlotOnion, 2, 1}, // from (1, 1)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("forward order:\n got %v\nwant %v", got, want)
	}
}

// TestFailedKeyIsNotRetried: a granted key that does not open the held onion
// is marked and not tried again — neither the key nor the onion can change
// once set — so later advances allocate nothing and never forward.
func TestFailedKeyIsNotRetried(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, &seen)
	watcher := dht.IDFromKey([]byte("watcher"))
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{watcher[:]}, Payload: []byte("secret")}}, []seal.Key{{1}})
	if err != nil {
		t.Fatal(err)
	}
	mission, wrong := MissionID{0xFA}, seal.Key{2}
	grant := Packet{
		Mission: mission, Kind: PkKeyGrant, Column: 1,
		HoldUntil: clock.Now().Add(time.Hour).UnixNano(), Step: int64(time.Hour), Data: wrong[:],
	}
	host.HandleApp(dht.Contact{}, grant.AppendEncode(nil))
	main := grant
	main.Kind, main.Target, main.Data = PkMainOnion, watcher, wrapped
	host.HandleApp(dht.Contact{}, main.AppendEncode(nil))
	clock.RunFor(time.Hour + time.Minute) // the hold comes due

	if allocs := testing.AllocsPerRun(100, func() { host.advance(mission) }); allocs != 0 {
		t.Errorf("advancing a held onion under a failed key allocates %.0f times", allocs)
	}
	clock.RunFor(time.Minute)
	if len(seen) != 0 {
		t.Fatalf("a key that does not open the onion forwarded %d packets", len(seen))
	}
}
