package protocol

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
)

// poison is a forged share mix sent ahead of an honest split's shares: fresh
// forged coordinates claiming the true threshold (errors the decoder must
// correct), forged variants of the first honest X coordinates (which make
// those coordinates conflict, so the group leaves them out) and shares
// claiming another threshold (which the group leaves out as long as the true
// one is claimed more often).
type poison struct {
	m, n                   int
	fresh, conflict, wrong int
}

// shares returns the forged shares, then the honest ones in X order.
func (p poison) shares(t *testing.T, key seal.Key) (forged, honest []shamir.Share) {
	t.Helper()
	honest, err := shamir.Split(key[:], p.m, p.n)
	if err != nil {
		t.Fatal(err)
	}
	junk := func(m, x int) shamir.Share {
		return shamir.Share{M: byte(m), X: byte(x), Data: bytes.Repeat([]byte{byte(x)}, seal.KeySize)}
	}
	for i := range p.fresh {
		forged = append(forged, junk(p.m, p.n+1+i))
	}
	for i := range p.conflict {
		forged = append(forged, junk(p.m, 1+i))
	}
	for i := range p.wrong {
		forged = append(forged, junk(p.m+1, 1+i))
	}
	return forged, honest
}

func (p poison) forgeries() int { return p.fresh + p.conflict + p.wrong }

// recoversAt is the honest arrival at which the group first satisfies
// s >= m + 2f: s counts the fresh forgeries and the honest shares whose X no
// forgery conflicts with, f the fresh forgeries.
func (p poison) recoversAt() int { return p.m + p.fresh + p.conflict }

// TestRecoverPoisonedShares feeds Shares an honest split's collection behind
// forged shares, one share at a time, with the true key as the oracle. The key
// is recovered at exactly the honest arrival where the group reaches
// s >= m + 2f, and no arrival offers more than two keys: one interpolation's
// and one decode's. A second run with nothing new offers none. An honest
// collection alone offers no key below m shares and the key at m.
func TestRecoverPoisonedShares(t *testing.T) {
	for _, p := range []poison{
		{m: 3, n: 8},
		{m: 4, n: 20, fresh: 2, conflict: 1, wrong: 3},
		{m: 8, n: 31, fresh: 3, conflict: 2, wrong: 5},
		{m: 2, n: 31, fresh: 12, wrong: 1},
		{m: 1, n: 5, fresh: 1},
		{m: 2, n: 8, fresh: 1, wrong: 4}, // the claims tie at the recovery
	} {
		t.Run(fmt.Sprintf("%+v", p), func(t *testing.T) {
			key := seal.Key{0x45, byte(p.m), byte(p.n)}
			forged, honest := p.shares(t, key)
			var s Shares
			tries := 0
			try := func(k seal.Key) bool { tries++; return k == key }
			arrive := func(share shamir.Share) (offered int, ok bool) {
				before := tries
				if added, err := s.Add(share); !added || err != nil {
					t.Fatalf("share %d/%d not kept", share.M, share.X)
				}
				ok = s.Recover(try)
				if again := s.Recover(try); again || tries-before > 2 {
					t.Fatalf("share %d/%d: a second run with nothing new recovered %v, offered %d keys in all", share.M, share.X, again, tries-before)
				}
				return tries - before, ok
			}
			for _, share := range forged {
				if _, ok := arrive(share); ok {
					t.Fatal("forged shares alone recovered the key")
				}
			}
			for k, share := range honest {
				offered, ok := arrive(share)
				if offered > 2 {
					t.Fatalf("honest arrival %d offered %d keys", k+1, offered)
				}
				if p.forgeries() == 0 && k+1 < p.m && offered != 0 {
					t.Fatalf("honest arrival %d, below the threshold %d, offered %d keys", k+1, p.m, offered)
				}
				if ok != (k+1 == p.recoversAt()) {
					t.Fatalf("honest arrival %d: recovered %v, want recovery at arrival %d", k+1, ok, p.recoversAt())
				}
				if ok {
					return
				}
			}
			t.Fatal("never recovered")
		})
	}
}

// TestSharesAddBoundsVariants: a collection keeps one copy of a coordinate's
// share; a second variant marks the coordinate as conflicting, and nothing
// more of it is kept, nor a share whose data is not a key's length.
func TestSharesAddBoundsVariants(t *testing.T) {
	var s Shares
	share := func(m, x, fill byte) shamir.Share {
		return shamir.Share{M: m, X: x, Data: bytes.Repeat([]byte{fill}, seal.KeySize)}
	}
	for _, c := range []struct {
		share shamir.Share
		kept  bool
	}{
		{share(2, 1, 0xA), true},
		{share(2, 1, 0xA), false}, // an exact duplicate
		{share(2, 1, 0xB), true},  // the coordinate conflicts now
		{share(2, 1, 0xA), false},
		{share(2, 1, 0xC), false}, // a further variant
		{share(2, 1, 0xB), false},
		{share(3, 1, 0xC), true}, // another threshold's coordinate
		{shamir.Share{M: 2, X: 2, Data: []byte{7}}, false},
	} {
		if kept, err := s.Add(c.share); kept != c.kept || err != nil {
			t.Errorf("Add(%d/%d, %x…) = %v, want %v", c.share.M, c.share.X, c.share.Data[0], kept, c.kept)
		}
	}
	if len(s.list) != 2 || s.list[0].Data != nil {
		t.Errorf("kept %+v, want the conflicting coordinate and the other threshold's", s.list)
	}
}

// TestHolderRecoversPastForgedShares drives the rule through HandleApp: a
// holder of a main onion receives forged share datagrams for its Ref, then
// the honest shares of the onion's key one at a time. It peels at the honest
// arrival where the group reaches s >= m + 2f, not before, and forwards the
// onion at its deadline. Malformed share datagrams change nothing.
func TestHolderRecoversPastForgedShares(t *testing.T) {
	var seen []Packet
	clock, host, _ := newWatchedHolder(t, HostConfig{Replicas: 2}, 0, &seen)
	p := poison{m: 5, n: 16, fresh: 2, conflict: 1, wrong: 2}
	key := seal.Key{0x5A}
	hop := dht.IDFromKey([]byte("watcher"))
	wrapped, err := onion.Build([]onion.Layer{{NextHops: [][]byte{hop[:]}}, {NextHops: [][]byte{hop[:]}}}, []seal.Key{key, {1}})
	if err != nil {
		t.Fatal(err)
	}
	hold := clock.Now().Add(time.Hour)
	pkt := Packet{Mission: MissionID{0x45}, Kind: PkMainOnion, Column: 2, HoldUntil: hold.UnixNano(), Step: int64(time.Hour), Data: wrapped}
	host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	pkt.Kind = PkColShare
	send := func(data []byte) bool {
		pkt.Data = data
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
		return host.custodyAt(pkt.Mission, pkt.Ref()).hold.peeled
	}
	forged, honest := p.shares(t, key)
	for _, blob := range [][]byte{{0, 1, 7}, {5, 0, 7}, {5, 1}} { // no threshold, no X, no data
		if send(blob) {
			t.Fatalf("malformed share %x peeled the onion", blob)
		}
	}
	if n := len(host.custodyAt(pkt.Mission, pkt.Ref()).shares.list); n != 0 {
		t.Fatalf("%d malformed shares kept", n)
	}
	for _, share := range forged {
		if send(AppendEncodeShareBlob(nil, share)) {
			t.Fatal("forged shares alone peeled the onion")
		}
	}
	for k, share := range honest {
		if peeled := send(AppendEncodeShareBlob(nil, share)); peeled != (k+1 >= p.recoversAt()) {
			t.Fatalf("honest arrival %d: peeled %v, want a peel from arrival %d", k+1, peeled, p.recoversAt())
		}
	}
	clock.RunUntil(hold.Add(time.Minute))
	if len(seen) != 1 || seen[0].Kind != PkMainOnion || seen[0].Column != 3 {
		t.Fatalf("the watcher saw %+v, want the onion forwarded to column 3", seen)
	}
}

// TestShareFloodStaysAtCap: a holder's collection at one Ref keeps at most
// maxShares coordinates. A flood of 255 distinct coordinates for one Ref —
// forged shares of a key nothing opens — leaves maxShares kept, so the group
// a recovery decodes stays at the cap, and each coordinate refused past it is
// counted.
func TestShareFloodStaysAtCap(t *testing.T) {
	clock, host, _ := newWatchedHolder(t, HostConfig{}, 0, new([]Packet))
	wrapped, err := onion.Build([]onion.Layer{{Payload: []byte("secret")}}, []seal.Key{{0x5F}})
	if err != nil {
		t.Fatal(err)
	}
	pkt := Packet{Mission: MissionID{0x5F}, Kind: PkMainOnion, Column: 2, HoldUntil: clock.Now().Add(time.Hour).UnixNano(), Step: int64(time.Hour), Data: wrapped}
	host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	pkt.Kind = PkColShare
	for x := 1; x <= 255; x++ {
		pkt.Data = AppendEncodeShareBlob(nil, shamir.Share{M: 2, X: byte(x), Data: bytes.Repeat([]byte{byte(x)}, seal.KeySize)})
		host.HandleApp(dht.Contact{}, pkt.AppendEncode(nil))
	}
	rec := host.custodyAt(pkt.Mission, pkt.Ref())
	if kept := len(rec.shares.list); kept != maxShares {
		t.Fatalf("the collection keeps %d of 255 coordinates, want the cap %d", kept, maxShares)
	}
	if got := host.Refusals().Shares; got != 255-maxShares {
		t.Fatalf("%d refusals counted, want %d", got, 255-maxShares)
	}
	if rec.hold.peeled {
		t.Fatal("forged shares peeled the onion")
	}
}
