package adversary

import (
	"bytes"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport/simnet"
)

// buildChain constructs a 3-layer main onion and returns (wrapped, keys,
// secret).
func buildChain(t *testing.T) ([]byte, []seal.Key, []byte) {
	t.Helper()
	secret := []byte("the emerging secret")
	keys := make([]seal.Key, 3)
	for i := range keys {
		k, err := seal.NewKey()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	hop := dht.IDFromKey([]byte("next"))
	layers := []onion.Layer{
		{NextHops: [][]byte{hop[:]}},
		{NextHops: [][]byte{hop[:]}},
		{NextHops: [][]byte{hop[:]}, Payload: secret},
	}
	wrapped, err := onion.Build(layers, keys)
	if err != nil {
		t.Fatal(err)
	}
	return wrapped, keys, secret
}

func report(c *Collector, at time.Time, pkt protocol.Packet) {
	c.Report(at, dht.ID{}, pkt)
}

func grant(mission protocol.MissionID, col int, key seal.Key) protocol.Packet {
	return protocol.Packet{Mission: mission, Kind: protocol.PkKeyGrant, Column: uint16(col), Data: key.Bytes()}
}

func TestReleaseAheadNeedsEveryColumn(t *testing.T) {
	// The Figure 2(b) K3 case: keys for head and tail but a gap in the
	// middle stops reconstruction; filling the gap releases the secret.
	wrapped, keys, secret := buildChain(t)
	c := NewCollector()
	var mission protocol.MissionID
	mission[0] = 1
	now := time.Unix(0, 0)

	report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkMainOnion, Column: 1, Data: wrapped})
	report(c, now, grant(mission, 1, keys[0]))
	report(c, now, grant(mission, 3, keys[2]))
	if _, ok := c.Recovered(mission); ok {
		t.Fatal("recovered with a column gap: onion continuity broken")
	}

	// The missing middle key closes the gap.
	later := now.Add(time.Minute)
	report(c, later, grant(mission, 2, keys[1]))
	at, ok := c.Recovered(mission)
	if !ok {
		t.Fatal("not recovered despite holding every layer key and the onion")
	}
	if !at.Equal(later) {
		t.Errorf("recoveredAt = %v, want %v", at, later)
	}
	got, _ := c.Secret(mission)
	if !bytes.Equal(got, secret) {
		t.Errorf("reconstructed %q", got)
	}
}

func TestReleaseAheadNeedsTheOnionToo(t *testing.T) {
	_, keys, _ := buildChain(t)
	c := NewCollector()
	var mission protocol.MissionID
	now := time.Unix(0, 0)
	for i, k := range keys {
		report(c, now, grant(mission, i+1, k))
	}
	if _, ok := c.Recovered(mission); ok {
		t.Fatal("recovered from keys alone, without any onion")
	}
}

func TestCentralPacketIsImmediateCompromise(t *testing.T) {
	c := NewCollector()
	var mission protocol.MissionID
	now := time.Unix(100, 0)
	report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkCentral, Data: []byte("s")})
	at, ok := c.Recovered(mission)
	if !ok || !at.Equal(now) {
		t.Fatalf("central packet: recovered=%v at=%v", ok, at)
	}
}

func TestColumnKeyFromShares(t *testing.T) {
	// m=2 of n=4: one share is not enough, two are.
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := shamir.Split(key.Bytes(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("inner")
	hop := dht.IDFromKey([]byte("h"))
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{hop[:]}, Payload: secret}}, []seal.Key{key})
	if err != nil {
		t.Fatal(err)
	}

	c := NewCollector()
	var mission protocol.MissionID
	now := time.Unix(0, 0)
	report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkMainOnion, Column: 1, Data: wrapped})
	report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkColShare, Column: 1, Data: protocol.AppendEncodeShareBlob(nil, shares[0])})
	if _, ok := c.Recovered(mission); ok {
		t.Fatal("recovered below threshold")
	}
	report(c, now.Add(time.Second), protocol.Packet{Mission: mission, Kind: protocol.PkColShare, Column: 1, Data: protocol.AppendEncodeShareBlob(nil, shares[2])})
	if _, ok := c.Recovered(mission); !ok {
		t.Fatal("not recovered at threshold")
	}
}

// TestInferInterpolatesOnlyNewShares: the collector recovers a Ref's key by
// the holder's rule (protocol.Shares.Recover). Shares name their threshold, so
// a collection below it offers the onion no key at all, nor does a second
// infer with nothing new or a report that adds nothing at that Ref; the
// share that completes the threshold offers one key, which opens the onion.
func TestInferInterpolatesOnlyNewShares(t *testing.T) {
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := shamir.Split(key.Bytes(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	hop := dht.IDFromKey([]byte("h"))
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{hop[:]}, Payload: []byte("s")}}, []seal.Key{key})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	mission, now := protocol.MissionID{0x1e}, time.Unix(0, 0)
	share := func(s shamir.Share) protocol.Packet {
		return protocol.Packet{Mission: mission, Kind: protocol.PkColShare, Column: 1, Data: protocol.AppendEncodeShareBlob(nil, s)}
	}
	report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkMainOnion, Column: 1, Data: wrapped})
	report(c, now, share(shares[0]))
	report(c, now, share(shares[1]))
	in := c.missions[mission]
	if in.tries != 0 {
		t.Fatalf("two shares of a threshold-3 split: %d keys tried, want 0", in.tries)
	}
	c.infer(in, now)
	report(c, now, share(shares[1])) // a duplicate adds nothing
	report(c, now, grant(mission, 2, key))
	if in.tries != 0 {
		t.Errorf("infer with no new share at the Ref: %d keys tried, want 0", in.tries)
	}
	report(c, now, share(shares[2]))
	if _, ok := c.Recovered(mission); !ok || in.tries != 1 {
		t.Errorf("at threshold: recovered %v after %d keys tried, want true after 1", ok, in.tries)
	}
}

func TestDuplicateSharesDoNotFakeThreshold(t *testing.T) {
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	shares, err := shamir.Split(key.Bytes(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	hop := dht.IDFromKey([]byte("h"))
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{hop[:]}, Payload: []byte("s")}}, []seal.Key{key})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector()
	var mission protocol.MissionID
	now := time.Unix(0, 0)
	report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkMainOnion, Column: 1, Data: wrapped})
	blob := protocol.AppendEncodeShareBlob(nil, shares[0])
	for i := 0; i < 5; i++ {
		report(c, now, protocol.Packet{Mission: mission, Kind: protocol.PkColShare, Column: 1, Data: blob})
	}
	if _, ok := c.Recovered(mission); ok {
		t.Fatal("recovered from one share reported five times")
	}
	if got := c.Packets(mission); got != 6 {
		t.Errorf("Packets = %d", got)
	}
}

func TestSecretCopyIsolated(t *testing.T) {
	c := NewCollector()
	var mission protocol.MissionID
	report(c, time.Unix(0, 0), protocol.Packet{Mission: mission, Kind: protocol.PkSecret, Data: []byte("abc")})
	got, ok := c.Secret(mission)
	if !ok {
		t.Fatal("missing secret")
	}
	got[0] = 'X'
	again, _ := c.Secret(mission)
	if again[0] == 'X' {
		t.Error("Secret returned aliased memory")
	}
}

func TestUnknownMissionQueries(t *testing.T) {
	c := NewCollector()
	var mission protocol.MissionID
	if _, ok := c.Recovered(mission); ok {
		t.Error("unknown mission recovered")
	}
	if _, ok := c.Secret(mission); ok {
		t.Error("unknown mission has secret")
	}
	if c.Packets(mission) != 0 {
		t.Error("unknown mission has packets")
	}
}

// tee hands a holder's observations on to the collector, keeping the first
// sealed onion seen at each Ref.
type tee struct {
	c      *Collector
	onions map[protocol.Ref][]byte
}

func (t *tee) Report(now time.Time, from dht.ID, pkt protocol.Packet) {
	if pkt.Kind == protocol.PkMainOnion || pkt.Kind == protocol.PkSlotOnion {
		if _, seen := t.onions[pkt.Ref()]; !seen {
			t.onions[pkt.Ref()] = append([]byte(nil), pkt.Data...)
		}
	}
	t.c.Report(now, from, pkt)
}

// TestHolderAndAdversaryRecoverSameKeys feeds one key-share mission's packets
// to a Host and a Collector at once — the host is the mission's only holder
// and reports everything it sees — and requires the same confirmed key per
// Ref: the key the collector infers at a Ref from column 1 alone opens the
// onion the host later holds there to exactly what the host, having
// confirmed its own key against that onion, sends on.
func TestHolderAndAdversaryRecoverSameKeys(t *testing.T) {
	clock := sim.NewSimulator()
	fabric := simnet.New(clock, simnet.Config{Seed: 1})
	feed := &tee{c: NewCollector(), onions: make(map[protocol.Ref][]byte)}
	var emerged []byte
	host, err := protocol.NewHost(protocol.HostConfig{
		Malicious: true, Reporter: feed, Replicas: 2,
		OnSecret: func(_ protocol.MissionID, secret []byte) { emerged = append([]byte(nil), secret...) },
	}, dht.Config{
		ID: dht.IDFromKey([]byte("holder")), Endpoint: fabric.Endpoint("holder"), Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := host.Node()
	// An isolated node sends nothing; the peer only makes owner lookups succeed.
	peer, err := dht.NewNode(dht.Config{ID: dht.IDFromKey([]byte("peer")), Endpoint: fabric.Endpoint("peer"), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	peer.Bootstrap([]dht.Contact{node.Contact()}, nil)
	clock.RunFor(time.Minute)

	const l, n = 3, 3
	m := protocol.Mission{
		ID:       protocol.MissionID{0x5A},
		Plan:     core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: l, ShareN: n, ShareM: []int{2, 2}},
		Secret:   []byte("same keys on both sides"),
		Receiver: node.ID(),
		Start:    clock.Now(),
		Release:  clock.Now().Add(l * time.Hour),
		Replicas: 2,
	}
	if _, err := protocol.NewSender(stats.NewByteStream(18)).Dispatch(node, m); err != nil {
		t.Fatal(err)
	}
	// The collector has seen column 1 only, the holder has peeled nothing
	// yet: every later key is inferred through the slot onions.
	clock.RunFor(time.Minute)
	in := feed.c.missions[m.ID]
	keys := make(map[protocol.Ref]seal.Key)
	for c := int32(1); c <= l; c++ {
		refs := []protocol.Ref{{Column: c, Slot: protocol.ColumnWide}}
		for s := int32(0); s < n && c < l; s++ {
			refs = append(refs, protocol.Ref{Column: c, Slot: s})
		}
		for _, ref := range refs {
			key, ok := in.key(ref)
			if !ok {
				t.Fatalf("%+v: the collector inferred no key", ref)
			}
			keys[ref] = key
		}
	}

	clock.RunUntil(m.Release.Add(time.Minute))
	if !bytes.Equal(emerged, m.Secret) {
		t.Fatalf("the holder released %q, want %q", emerged, m.Secret)
	}
	if len(feed.onions) != len(keys) {
		t.Fatalf("the holder saw onions at %d Refs, want %d", len(feed.onions), len(keys))
	}
	for ref, sealed := range feed.onions {
		layer, err := onion.Peel(keys[ref], sealed)
		if err != nil {
			t.Fatalf("%+v: the collector's key does not open the holder's onion: %v", ref, err)
		}
		next := protocol.Ref{Column: ref.Column + 1, Slot: ref.Slot}
		switch {
		case layer.Payload != nil:
			if !bytes.Equal(layer.Payload, emerged) {
				t.Errorf("%+v: the collector's key opens to %q, the holder released %q", ref, layer.Payload, emerged)
			}
		case layer.Rest != nil:
			if !bytes.Equal(layer.Rest, feed.onions[next]) {
				t.Errorf("%+v: the holder forwarded another onion to %+v than the collector's key opens", ref, next)
			}
		}
	}
}
