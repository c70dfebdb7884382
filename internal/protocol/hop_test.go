package protocol

import (
	"testing"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
)

// maxJointHopAllocs is what TestJointHopAllocs measures for one joint hop at
// a warmed holder: the mission's state, whose first custody record holds the
// held package and the grant's repair loop; the one-shot open's AES block and
// GCM state; the opened plaintext, which the package keeps until it forwards;
// and the self-insertion into the forward's owner walk result. A record,
// sealer, item array, map or closure that custody buys again per mission
// fails on it.
const maxJointHopAllocs = 5

// TestJointHopAllocs pins the allocations of one joint mission's hop at a
// warmed holder: its column-key grant (with repair armed), its main onion,
// the hold and the forward of the peeled onion to both slots of the next
// column. The next hops name the watcher, and the holder sends one replica,
// so every forward leaves the holder.
func TestJointHopAllocs(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 1, Repair: true}, 0, &seen)
	watcher := dht.IDFromKey([]byte("watcher"))
	keys := []seal.Key{{1}, {2}}
	wrapped, err := onion.Build([]onion.Layer{
		{NextHops: [][]byte{watcher[:], watcher[:]}},
		{NextHops: [][]byte{watcher[:]}, Payload: []byte("secret")},
	}, keys)
	if err != nil {
		t.Fatal(err)
	}
	const hold = int64(time.Hour)
	var (
		buf      []byte
		missions int
		forwards int
	)
	hop := func() {
		missions++
		now := clock.Now().UnixNano()
		grant := Packet{
			Mission: MissionID{0x40, byte(missions), byte(missions >> 8)}, Kind: PkKeyGrant,
			Column: 1, Width: 2, HoldUntil: now + hold, Step: hold, Data: keys[0][:],
		}
		buf = grant.AppendEncode(buf[:0])
		host.HandleApp(dht.Contact{}, buf)
		main := grant
		main.Kind, main.Width, main.Target, main.Data = PkMainOnion, 0, watcher, wrapped
		buf = main.AppendEncode(buf[:0])
		host.HandleApp(dht.Contact{}, buf)
		clock.RunFor(time.Duration(hold) + time.Minute)
		forwards += len(seen)
		seen = seen[:0]
	}
	allocs := testing.AllocsPerRun(100, hop)
	if forwards != 2*missions {
		t.Fatalf("%d missions forwarded %d onions, want 2 each", missions, forwards)
	}
	t.Logf("one joint hop: %.1f allocations", allocs)
	if allocs > maxJointHopAllocs {
		t.Fatalf("one joint hop allocates %.0f times, want at most %d", allocs, maxJointHopAllocs)
	}
}
