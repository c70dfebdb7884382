package protocol

import (
	"slices"
	"testing"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
)

// TestDeadCustodianStops: a holder closed mid-hold is gone. It has custody of
// a main onion with its key (a hold timer), a key grant under repair (the
// refresh loop and, with Retry, its backup pushes) and a column share under
// repair (the regrant ticks). Alive, it forwards the onion and re-pushes the
// grant and the share, so the watcher — the only other node, and with two
// replicas an owner of everything — sees all three. Closed, every one of its
// remaining timers fires into nothing: no owner send (each would fail K
// requests through K scheduled closures), nothing re-armed, so the pending
// count falls by exactly one per event until the loop is empty.
func TestDeadCustodianStops(t *testing.T) {
	for _, closed := range []bool{false, true} {
		var seen []Packet
		clock, host, node := newWatchedHolder(t, HostConfig{Replicas: 2, Repair: true}, 3, &seen)
		var err error
		if clock.Pending() != 0 {
			t.Fatalf("%d events pending on a quiet two-node network", clock.Pending())
		}

		// Custody: a two-layer main onion due in an hour, the grant of its key
		// (width 2, refreshed every period for three), and a column share of
		// the next column due at the same deadline.
		mission, step := MissionID{0xDC}, time.Hour
		holdUntil := clock.Now().Add(step)
		hop := make([]byte, dht.IDBytes)
		layers := []onion.Layer{{NextHops: [][]byte{hop}}, {NextHops: [][]byte{hop}}}
		keys := make([]seal.Key, len(layers))
		for i := range keys {
			if keys[i], err = seal.NewKey(); err != nil {
				t.Fatal(err)
			}
		}
		sealed, err := onion.Build(layers, keys)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range []Packet{
			{Kind: PkMainOnion, Column: 1, HoldUntil: holdUntil.UnixNano(), Data: sealed},
			{Kind: PkKeyGrant, Column: 1, Width: 2, HoldUntil: holdUntil.Add(2 * step).UnixNano(), Data: keys[0].Bytes()},
			{Kind: PkColShare, Column: 2, Width: 2, HoldUntil: holdUntil.UnixNano(), Data: AppendEncodeShareBlob(nil, keyShare)},
		} {
			pkt.Mission, pkt.Step = mission, int64(step)
			host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
		}
		armed := clock.Pending()
		if armed != 4 {
			t.Fatalf("%d timers armed, want the hold, the grant refresh and two share regrants", armed)
		}
		end := holdUntil.Add(3 * step)

		if !closed {
			clock.RunUntil(end)
			for _, kind := range []PacketKind{PkMainOnion, PkKeyGrant, PkColShare} {
				if !slices.ContainsFunc(seen, func(pkt Packet) bool { return pkt.Kind == kind }) {
					t.Errorf("a live custodian sent no %v past its deadlines: the closed arm would prove nothing", kind)
				}
			}
			continue
		}

		if err := node.Close(); err != nil {
			t.Fatal(err)
		}
		for {
			at, ok := clock.NextAt()
			if !ok || at.After(end) {
				break
			}
			before := clock.Pending()
			clock.Step()
			if after := clock.Pending(); after != before-1 {
				t.Fatalf("a dead custodian's timer at %v scheduled %d new events", at.Sub(holdUntil), after-before+1)
			}
		}
		if clock.Pending() != 0 {
			t.Errorf("%d of the dead custodian's %d timers still pending three periods on", clock.Pending(), armed)
		}
		if len(seen) != 0 {
			t.Errorf("a dead custodian sent %d packets", len(seen))
		}
	}
}
