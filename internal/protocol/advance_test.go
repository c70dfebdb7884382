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
// running a host with cfg over a node that makes retry sends per request, and
// a watcher that appends
// every protocol packet it receives to seen. With two replicas the watcher is
// an owner of everything the holder sends.
func newWatchedHolder(t *testing.T, cfg HostConfig, retry int, seen *[]Packet) (*sim.Simulator, *Host, *dht.Node) {
	t.Helper()
	clock := sim.NewSimulator()
	fabric := simnet.New(clock, simnet.Config{Seed: 1})
	host, err := NewHost(cfg, dht.Config{
		ID: dht.IDFromKey([]byte("holder")), Endpoint: fabric.Endpoint("holder"), Clock: clock, Retry: retry,
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

// TestAdvanceTouchesOneRecord: an event advances only the record it touched.
// A holder keeps a slot onion and a main onion of one mission, both due in an
// hour. The slot onion's grant peels it, and its due flag is then set by hand,
// as if its hold event had not yet advanced it: an advance that forwarded any
// due, peeled record of the mission would send it on the main onion's grant.
// Each hold event then forwards its own record, in the order the holds were
// armed. The network is the holder and one watcher, and the holder sends two
// replicas of everything, so the watcher sees every forward.
func TestAdvanceTouchesOneRecord(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)

	mission := MissionID{0xAD}
	hops := [][]byte{make([]byte, dht.IDBytes), make([]byte, dht.IDBytes)}
	hops[1][0] = 1
	// build returns a package of pkt's kind and Ref, due in an hour, and the
	// grant of its outer layer's key.
	build := func(pkt Packet) (Packet, Packet) {
		// Two layers, so the forward sends the rest one column on; a slot
		// onion's outer layer also scatters one column-key share.
		layers := []onion.Layer{{NextHops: hops[:1]}, {NextHops: hops[:1]}}
		grant := Packet{Mission: mission, Kind: PkKeyGrant, Column: pkt.Column, Slot: pkt.Slot}
		if pkt.Kind == PkSlotOnion {
			layers[0] = onion.Layer{NextHops: hops, Shares: [][]byte{AppendEncodeShareTag(nil, ColumnWide, keyShare)}}
			grant.X = keyGrantSlot
		}
		keys := []seal.Key{{1}, {2}}
		pkt.Mission, pkt.Step = mission, int64(time.Hour)
		pkt.HoldUntil = clock.Now().Add(time.Hour).UnixNano()
		var err error
		if pkt.Data, err = onion.Build(layers, keys); err != nil {
			t.Fatal(err)
		}
		grant.Data, grant.HoldUntil = keys[0][:], pkt.HoldUntil
		return pkt, grant
	}
	slotPkg, slotGrant := build(Packet{Kind: PkSlotOnion, Column: 1, Slot: 0})
	mainPkg, mainGrant := build(Packet{Kind: PkMainOnion, Column: 1})
	for _, pkt := range []Packet{slotPkg, mainPkg, slotGrant} {
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	}
	slot, main := host.custodyAt(mission, slotPkg.Ref()), host.custodyAt(mission, mainPkg.Ref())
	if !slot.hold.peeled {
		t.Fatal("the slot onion's grant did not peel it")
	}
	slot.hold.due = true
	host.HandleApp(dht.Contact{}, mainGrant.AppendEncode(nil))
	if !main.hold.peeled || main.forwarded || slot.forwarded {
		t.Fatalf("after the main onion's grant: main peeled %v forwarded %v, slot forwarded %v; want the main peeled and nothing forwarded",
			main.hold.peeled, main.forwarded, slot.forwarded)
	}
	slot.hold.due = false
	clock.RunFor(time.Hour + time.Minute)

	type hop struct {
		kind         PacketKind
		column, slot uint16
	}
	var got []hop
	for _, pkt := range seen {
		got = append(got, hop{pkt.Kind, pkt.Column, pkt.Slot})
	}
	// Both forwards are due at one instant, an hour on, and sends due in one
	// instant leave in the order they were made: the holds' order.
	want := []hop{
		{PkColShare, 2, 0}, {PkColShare, 2, 1}, {PkSlotOnion, 2, 0}, // from (1, 0)
		{PkMainOnion, 2, 0}, // from (1, wide)
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
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)
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

	rec := host.custodyAt(mission, main.Ref())
	if allocs := testing.AllocsPerRun(100, func() { host.advance(rec) }); allocs != 0 {
		t.Errorf("advancing a held onion under a failed key allocates %.0f times", allocs)
	}
	clock.RunFor(time.Minute)
	if len(seen) != 0 {
		t.Fatalf("a key that does not open the onion forwarded %d packets", len(seen))
	}
}

// TestForgedGrantLeavesHonestGrantOpen: at a multipath Ref, which has no
// shares, a forged grant that arrives ahead of the honest one does not cost
// the holder its copy. The holder gets an all-zero grant at (column 2,
// column-wide), then the true key's grant, then the main onion: the true key
// opens it, becomes the record's key (the one repair pushes carry), and at the
// deadline the holder delivers the secret. Past maxGrantKeys distinct keys a
// record refuses more, and counts them.
func TestForgedGrantLeavesHonestGrantOpen(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)
	watcher := dht.IDFromKey([]byte("watcher"))
	key := seal.Key{1}
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{watcher[:]}, Payload: []byte("secret")}}, []seal.Key{key})
	if err != nil {
		t.Fatal(err)
	}
	grant := func(mission MissionID, k seal.Key) Packet {
		return Packet{
			Mission: mission, Kind: PkKeyGrant, Column: 2,
			HoldUntil: clock.Now().Add(time.Hour).UnixNano(), Step: int64(time.Hour), Data: k[:],
		}
	}
	honest := grant(MissionID{0xF7}, key)
	for _, pkt := range []Packet{grant(honest.Mission, seal.Key{}), honest} {
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	}
	main := honest
	main.Kind, main.Target, main.Data = PkMainOnion, watcher, wrapped
	host.HandleApp(dht.Contact{}, main.AppendEncode(nil))
	if rec := host.custodyAt(main.Mission, main.Ref()); !rec.hold.peeled || rec.key != key {
		t.Fatalf("after a forged and an honest grant: peeled %v, record key is the true one %v", rec.hold.peeled, rec.key == key)
	}
	clock.RunFor(time.Hour + time.Minute)
	if len(seen) != 1 || seen[0].Kind != PkSecret || string(seen[0].Data) != "secret" {
		t.Fatalf("the watcher saw %d packets, want the secret alone", len(seen))
	}

	flooded := MissionID{0xF8}
	for i := 0; i < maxGrantKeys; i++ {
		host.HandleApp(dht.Contact{}, grant(flooded, seal.Key{0xEE, byte(i)}).AppendEncode(nil))
	}
	host.HandleApp(dht.Contact{}, grant(flooded, key).AppendEncode(nil))
	if got := host.Refusals().Grants; got != 1 {
		t.Fatalf("a grant past %d distinct keys: %d refused, want 1", maxGrantKeys, got)
	}
	clock.RunFor(time.Hour + lateGrace)
	host.HandleApp(dht.Contact{}, grant(MissionID{0xF9}, key).AppendEncode(nil)) // expires the flooded record
	if len(host.ledger.moreKeys) != 0 {
		t.Fatalf("past the horizon the ledger keeps %d records' extra keys", len(host.ledger.moreKeys))
	}
}

// TestForgedGrantLeavesSharesOpen: a granted key that fails does not close
// recovery from shares, so a forged grant at a key-share Ref does not lock
// its holder out of the true key. The holder gets an all-zero grant at
// (column 2, column-wide), then the main onion there, then all four (2, 4)
// shares of the true key; at the deadline it delivers the onion's secret.
func TestForgedGrantLeavesSharesOpen(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)
	watcher := dht.IDFromKey([]byte("watcher"))
	key := seal.Key{1}
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{watcher[:]}, Payload: []byte("secret")}}, []seal.Key{key})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := shamir.Split(key[:], 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pkt := Packet{
		Mission: MissionID{0xF6}, Kind: PkKeyGrant, Column: 2,
		HoldUntil: clock.Now().Add(time.Hour).UnixNano(), Step: int64(time.Hour), Data: make([]byte, seal.KeySize),
	}
	host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	pkt.Kind, pkt.Target, pkt.Data = PkMainOnion, watcher, wrapped
	host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	pkt.Kind, pkt.Width = PkColShare, 4
	for _, sh := range shares {
		pkt.Data = AppendEncodeShareBlob(nil, sh)
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	}
	clock.RunFor(time.Hour + time.Minute)
	if len(seen) != 1 || seen[0].Kind != PkSecret || string(seen[0].Data) != "secret" {
		t.Fatalf("the watcher saw %d packets, want the secret alone", len(seen))
	}
}
