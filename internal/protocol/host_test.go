package protocol

import (
	"bytes"
	"testing"
	"time"
	"unsafe"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
	"selfemerge/internal/sim"
	"selfemerge/internal/transport/simnet"
)

// TestHostSize: a node is one record, the host with its node inside, and it
// fills the runtime's 352-byte size class. A field that pushes it into the
// next class (384 bytes) costs every node of every network 32 bytes.
func TestHostSize(t *testing.T) {
	if size := unsafe.Sizeof(Host{}); size > 352 {
		t.Fatalf("Host is %d bytes, want <= 352", size)
	}
}

// TestCustodySize: a holder's custody at one Ref of a mission is one record,
// with its hold and first repair loop inside, and it fits the runtime's
// 384-byte size class. A field that pushes it into the next class (416
// bytes) costs every holder of every mission 32 bytes a Ref.
func TestCustodySize(t *testing.T) {
	if size := unsafe.Sizeof(custody{}); size > 384 {
		t.Fatalf("custody is %d bytes, want <= 384", size)
	}
}

// TestNewHostOwnsOnApp: a host is its node's OnApp, so NewHost refuses a
// config that names another, and the node it builds hands it its payloads.
func TestNewHostOwnsOnApp(t *testing.T) {
	clock := sim.NewSimulator()
	fabric := simnet.New(clock, simnet.Config{})
	cfg := dht.Config{ID: dht.IDFromKey([]byte("h")), Endpoint: fabric.Endpoint("h"), Clock: clock}
	other := cfg
	other.OnApp = appFunc(func(dht.Contact, []byte) {})
	if _, err := NewHost(HostConfig{}, other); err == nil {
		t.Fatal("NewHost accepted a caller-supplied OnApp")
	}
	got := false
	host, err := NewHost(HostConfig{OnSecret: func(MissionID, []byte) { got = true }}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := dht.NewNode(dht.Config{ID: dht.IDFromKey([]byte("p")), Endpoint: fabric.Endpoint("p"), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := peer.SendApp(host.Node().Contact(), Packet{Kind: PkSecret, Data: []byte("s")}.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if !got {
		t.Error("the host's node did not hand it the payload")
	}
}

// TestStaleEventsSpareRebuiltHost: a closed host is rebuilt at once while
// its predecessor's events are armed — a central hold, and a key grant's
// refresh tick, re-armed after its first push, with that push's backup. The
// rebuilt node has a live peer, so a push or a delivery would find an owner.
// When the old events come due they find their records stale: nothing is
// sent, and the rebuilt host's own custody of the same mission keeps its key.
// Rebuild refuses only an open host.
func TestStaleEventsSpareRebuiltHost(t *testing.T) {
	clock := sim.NewSimulator()
	fabric := simnet.New(clock, simnet.Config{})
	cfg := dht.Config{ID: dht.IDFromKey([]byte("h")), Endpoint: fabric.Endpoint("h"), Clock: clock, Retry: 3}
	hcfg := HostConfig{Repair: true}
	host, err := NewHost(hcfg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := dht.NewNode(dht.Config{ID: dht.IDFromKey([]byte("p")), Endpoint: fabric.Endpoint("p"), Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	now, step := clock.Now().UnixNano(), int64(time.Minute)
	key := bytes.Repeat([]byte{7}, seal.KeySize)
	grant := Packet{Mission: MissionID{1}, Kind: PkKeyGrant, Column: 2, Width: 2, Step: step, HoldUntil: now + 4*step, Data: key}
	for _, pkt := range []Packet{
		grant,
		{Mission: MissionID{2}, Kind: PkCentral, HoldUntil: now + 5*step, Target: peer.ID(), Data: []byte("s")},
	} {
		host.HandleApp(peer.Contact(), pkt.AppendEncode(nil))
	}
	clock.RunFor(57 * time.Second) // the first tick, 3.75 s early, has pushed
	if got := clock.Pending(); got != 3 {
		t.Fatalf("%d events pending, want 3: the hold, the re-armed refresh tick and its backup push", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rebuild of an open host did not panic")
			}
		}()
		_ = host.Rebuild(hcfg, cfg)
	}()
	if err := host.Node().Close(); err != nil {
		t.Fatal(err)
	}
	clock.RunFor(time.Second) // past the closing instant
	cfg.Endpoint = fabric.Endpoint("h")
	if err := host.Rebuild(HostConfig{}, cfg); err != nil {
		t.Fatal(err)
	}
	host.Node().Table().Observe(peer.Contact())
	// The rebuilt host's own grant of the same mission; it arms nothing.
	grant.Data = bytes.Repeat([]byte{9}, seal.KeySize)
	host.HandleApp(peer.Contact(), grant.AppendEncode(nil))
	sent, _, _ := fabric.Stats()
	clock.RunFor(6 * time.Minute)
	if got, _, _ := fabric.Stats(); got != sent {
		t.Errorf("the predecessor's events sent %d datagrams from the rebuilt host", got-sent)
	}
	if host.Records() != 1 || host.Node().Closed() {
		t.Fatalf("the rebuilt host keeps %d custody records, closed %v; want its own grant's 1, open", host.Records(), host.Node().Closed())
	}
	if got := ForwardedCustody(host, MissionID{1}); len(got) != 0 {
		t.Errorf("the rebuilt host's grant was spent: %v", got)
	}
	if rec := host.custodyAt(MissionID{1}, grant.Ref()); rec == nil || !rec.hasKey || !bytes.Equal(rec.key[:], grant.Data) {
		t.Error("the predecessor's events touched the rebuilt host's custody of the same mission")
	}
}

// TestBackupPushFollowsNodeRetry: a host backs its repair pushes with a second
// one exactly when its node retries. A key grant under repair, for a column of
// one slot, is re-pushed once per holding period, a sixteenth of the period
// early; over a 3-attempt
// node a backup push follows half that margin later, over a single-shot node
// none does. The watcher, an owner of everything the holder sends, counts the
// pushes of the first period.
func TestBackupPushFollowsNodeRetry(t *testing.T) {
	for _, tc := range []struct{ retry, pushes int }{{1, 1}, {3, 2}} {
		var seen []Packet
		clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2, Repair: true}, tc.retry, &seen)
		step := time.Minute
		grant := Packet{
			Mission: MissionID{0xB7}, Kind: PkKeyGrant, Column: 2, Width: 1, Step: int64(step),
			HoldUntil: clock.Now().Add(4 * step).UnixNano(), Data: bytes.Repeat([]byte{7}, seal.KeySize),
		}
		host.HandleApp(dht.Contact{}, grant.AppendEncode(nil))
		clock.RunFor(step)
		pushes := 0
		for _, pkt := range seen {
			if pkt.Kind == PkKeyGrant {
				pushes++
			}
		}
		if pushes != tc.pushes {
			t.Errorf("retry %d: the watcher saw %d grant pushes in the first period, want %d", tc.retry, pushes, tc.pushes)
		}
	}
}
