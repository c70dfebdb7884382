package protocol

import (
	"testing"
	"unsafe"

	"selfemerge/internal/dht"
	"selfemerge/internal/sim"
	"selfemerge/internal/transport/simnet"
)

// TestHostSize: a churn join allocates one record, the host with its node
// inside, and it fills the runtime's 352-byte size class. A field that
// pushes it into the next class (384 bytes) costs every node of every
// network 32 bytes.
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
