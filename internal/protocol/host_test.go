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
	if host.Records() != 1 {
		t.Fatalf("the rebuilt host owes %d custody records; want its own grant's 1", host.Records())
	}
	sent, _, _ := fabric.Stats()
	clock.RunFor(6 * time.Minute)
	if got, _, _ := fabric.Stats(); got != sent {
		t.Errorf("the predecessor's events sent %d datagrams from the rebuilt host", got-sent)
	}
	// The grant's deadline has passed, so it owes nothing, but its record is
	// kept until its horizon.
	if held, gone := Custody(host, MissionID{1}); len(held) != 1 || len(gone) != 0 || host.Node().Closed() {
		t.Fatalf("the rebuilt host holds records at %v and spent records at %v, closed %v; want its own grant's record, open", held, gone, host.Node().Closed())
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

// TestCustodyBounds: a host refuses, and counts, material whose deadline
// lies past the hold horizon or more than lateGrace behind, and material for
// a new record once it owes maxLiveRecords. A refused packet makes no record
// and arms no event.
func TestCustodyBounds(t *testing.T) {
	clock, host, _ := newWatchedHolder(t, HostConfig{}, 0, new([]Packet))
	now := clock.Now().UnixNano()
	grant := func(mission int, holdUntil int64) {
		pkt := Packet{Kind: PkKeyGrant, Column: 1, HoldUntil: holdUntil, Data: bytes.Repeat([]byte{7}, seal.KeySize)}
		pkt.Mission[0], pkt.Mission[1] = byte(mission), byte(mission>>8)
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	}
	pending := clock.Pending()
	for _, at := range []int64{now + int64(maxHoldAhead) + 1, now - int64(lateGrace), -1 << 63, 1<<63 - 1} {
		grant(0, at)
	}
	if got := host.Refusals(); host.Records() != 0 || got.Horizon != 4 {
		t.Fatalf("deadlines outside the horizon: %d records, refusals %+v; want none kept and 4 refused", host.Records(), got)
	}
	for m := range maxLiveRecords + 10 {
		grant(m, now+int64(time.Hour))
	}
	if got := host.Refusals(); host.Records() != maxLiveRecords || got.Records != 10 {
		t.Fatalf("%d fresh missions: %d records, refusals %+v; want %d kept and 10 refused", maxLiveRecords+10, host.Records(), got, maxLiveRecords)
	}
	if got := clock.Pending(); got != pending {
		t.Fatalf("the grants armed %d events", got-pending)
	}
	if err := CheckBounds(host); err != nil {
		t.Fatal(err)
	}
}

// TestStrayRecordAgesOut: a record that never reaches a duty — a key whose
// package never comes — is owed until its deadline. Its loop keeps it until
// its horizon, the deadline plus lateGrace, in case the package comes late,
// and forgets it then with no event armed for it: its memory goes back to
// the loop's free list. Material for its Ref after the horizon is refused as
// late, not taken into a new record.
func TestStrayRecordAgesOut(t *testing.T) {
	clock, host, _ := newWatchedHolder(t, HostConfig{}, 0, new([]Packet))
	hold := clock.Now().Add(time.Hour)
	grant := Packet{Mission: MissionID{0x57}, Kind: PkKeyGrant, Column: 1, HoldUntil: hold.UnixNano(), Data: bytes.Repeat([]byte{7}, seal.KeySize)}
	host.HandleApp(dht.Contact{}, grant.AppendEncode(nil))
	free := host.ledger.free.Len()
	clock.RunUntil(hold.Add(-time.Nanosecond))
	if got := host.Records(); got != 1 {
		t.Fatalf("before its deadline the stray owes %d records, want 1", got)
	}
	for _, at := range []time.Time{hold, hold.Add(lateGrace - time.Nanosecond)} {
		clock.RunUntil(at)
		host.ledger.expire(at.UnixNano())
		held, _ := Custody(host, grant.Mission)
		if got := host.Records(); got != 0 || len(held) != 1 {
			t.Fatalf("%v past its deadline the stray owes %d records and is held at %v; want none owed, one held", at.Sub(hold), got, held)
		}
	}
	clock.RunUntil(hold.Add(lateGrace))
	host.ledger.expire(clock.Now().UnixNano())
	if held, _ := Custody(host, grant.Mission); len(held) != 0 {
		t.Fatalf("the stray is held at %v past its horizon", held)
	}
	if got := host.ledger.free.Len(); got != free+1 {
		t.Fatalf("the free list holds %d records, want %d", got, free+1)
	}
	host.HandleApp(dht.Contact{}, grant.AppendEncode(nil))
	if host.Records() != 0 || host.Refusals().Horizon != 1 {
		t.Fatalf("a grant past its horizon: %d records, refusals %+v", host.Records(), host.Refusals())
	}
}

// TestSpentRecordRefusesLateMaterial: a record that sent its package on owes
// nothing, but stays in the index and refuses its Ref's material up to its
// horizon; past it the deadline rule refuses it. Neither makes a record or
// arms an event, and no honest duplicate comes back to life.
func TestSpentRecordRefusesLateMaterial(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)
	hold := clock.Now().Add(time.Minute)
	pkt := Packet{Mission: MissionID{0x7B}, Kind: PkCentral, HoldUntil: hold.UnixNano(), Target: dht.IDFromKey([]byte("watcher")), Data: []byte("secret")}
	host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	clock.RunUntil(hold.Add(time.Second))
	if len(seen) == 0 || host.Records() != 0 {
		t.Fatalf("after the deadline: %d deliveries seen, %d records owed; want the delivery and none", len(seen), host.Records())
	}
	if _, gone := Custody(host, pkt.Mission); len(gone) != 1 {
		t.Fatalf("spent records at %v, want the central Ref", gone)
	}
	for _, at := range []time.Time{hold.Add(lateGrace - time.Second), hold.Add(lateGrace)} {
		clock.RunUntil(at)
		pending := clock.Pending()
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
		if host.Records() != 0 || clock.Pending() != pending {
			t.Fatalf("a duplicate at %v past the deadline made %d records and armed %d events", at.Sub(hold), host.Records(), clock.Pending()-pending)
		}
	}
	if got := host.Refusals().Horizon; got != 1 {
		t.Fatalf("%d duplicates refused as late, want the one past the horizon", got)
	}
}
