package protocol

import (
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

// TestMissionStateSize: a holder's custody of a mission is one record, its
// first Ref's custody with its hold and first repair loop inside, and it fits
// the runtime's 448-byte size class. A field that pushes it into the next
// class (480 bytes) costs every holder of every mission 32 bytes.
func TestMissionStateSize(t *testing.T) {
	if size := unsafe.Sizeof(missionState{}); size > 448 {
		t.Fatalf("missionState is %d bytes, want <= 448", size)
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
	if _, err := NewHost(HostConfig{Clock: clock}, other); err == nil {
		t.Fatal("NewHost accepted a caller-supplied OnApp")
	}
	got := false
	host, err := NewHost(HostConfig{Clock: clock, OnSecret: func(MissionID, []byte) { got = true }}, cfg)
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

// TestHostFinishedOnceItsEventsRan: a closed host is Finished only once every
// event it armed has run — a central hold, and a key grant's refresh tick,
// re-armed after its first push, with that push's backup — and Rebuild
// refuses it until then. The rebuilt host keeps no custody.
func TestHostFinishedOnceItsEventsRan(t *testing.T) {
	clock := sim.NewSimulator()
	fabric := simnet.New(clock, simnet.Config{})
	cfg := dht.Config{ID: dht.IDFromKey([]byte("h")), Endpoint: fabric.Endpoint("h"), Clock: clock}
	host, err := NewHost(HostConfig{Clock: clock, Repair: true, Retry: true}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	from := dht.Contact{ID: dht.IDFromKey([]byte("p")), Addr: "p"}
	now, step := clock.Now().UnixNano(), int64(time.Minute)
	key := make([]byte, seal.KeySize)
	for _, pkt := range []Packet{
		{Mission: MissionID{1}, Kind: PkKeyGrant, Column: 2, Width: 2, Step: step, HoldUntil: now + 4*step, Data: key},
		{Mission: MissionID{2}, Kind: PkCentral, HoldUntil: now + 5*step, Data: []byte("s")},
	} {
		host.HandleApp(from, pkt.AppendEncode(nil))
	}
	clock.RunFor(57 * time.Second) // the first tick, 3.75 s early, has pushed
	if host.armed != 3 {
		t.Fatalf("%d events armed, want 3: the hold, the re-armed refresh tick and its backup push", host.armed)
	}
	if err := host.Node().Close(); err != nil {
		t.Fatal(err)
	}
	if host.Finished() {
		t.Fatal("a closed host with its hold and refresh armed is Finished")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Rebuild of a host with events armed did not panic")
			}
		}()
		_ = host.Rebuild(HostConfig{Clock: clock}, cfg)
	}()
	clock.RunFor(10 * time.Minute)
	if !host.Finished() {
		t.Fatal("a closed host whose events have all run is not Finished")
	}
	cfg.Endpoint = fabric.Endpoint("h")
	if err := host.Rebuild(HostConfig{Clock: clock}, cfg); err != nil {
		t.Fatal(err)
	}
	if host.Node().Closed() || host.Missions() != 0 {
		t.Errorf("the rebuilt host is closed %v and keeps %d missions", host.Node().Closed(), host.Missions())
	}
}
