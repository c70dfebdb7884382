package dht

import (
	"bytes"
	"testing"
	"testing/quick"

	"selfemerge/internal/stats"
)

func TestIDFromBytes(t *testing.T) {
	raw := make([]byte, IDBytes)
	raw[0] = 0xAB
	id, err := IDFromBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if id[0] != 0xAB {
		t.Error("bytes not copied")
	}
	if _, err := IDFromBytes(raw[:19]); err == nil {
		t.Error("short slice accepted")
	}
}

func TestIDFromKeyDeterministic(t *testing.T) {
	a := IDFromKey([]byte("hello"))
	b := IDFromKey([]byte("hello"))
	c := IDFromKey([]byte("world"))
	if a != b {
		t.Error("same key produced different IDs")
	}
	if a == c {
		t.Error("different keys collided")
	}
}

func TestXORMetricAxioms(t *testing.T) {
	rng := stats.NewRNG(3)
	err := quick.Check(func(_ uint64) bool {
		a, b, c := RandomID(rng), RandomID(rng), RandomID(rng)
		// d(x,x) = 0
		if a.XOR(a) != (ID{}) {
			return false
		}
		// symmetry
		if a.XOR(b) != b.XOR(a) {
			return false
		}
		// XOR triangle equality: d(a,c) = d(a,b) xor d(b,c)
		if a.XOR(c) != a.XOR(b).XOR(b.XOR(c)) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBucketIndex(t *testing.T) {
	var self ID
	// Peer differing in the top bit lands in bucket 0.
	var top ID
	top[0] = 0x80
	if idx, ok := self.BucketIndex(top); !ok || idx != 0 {
		t.Errorf("top-bit peer: idx=%d ok=%v", idx, ok)
	}
	// Peer differing only in the lowest bit lands in bucket 159.
	var low ID
	low[IDBytes-1] = 0x01
	if idx, ok := self.BucketIndex(low); !ok || idx != IDBits-1 {
		t.Errorf("low-bit peer: idx=%d ok=%v", idx, ok)
	}
	if _, ok := self.BucketIndex(self); ok {
		t.Error("self must not map to a bucket")
	}
}

func TestLeadingZeros(t *testing.T) {
	var id ID
	if got := id.LeadingZeros(); got != IDBits {
		t.Errorf("zero ID: %d", got)
	}
	id[0] = 0x01
	if got := id.LeadingZeros(); got != 7 {
		t.Errorf("0x01 first byte: %d", got)
	}
	id[0] = 0
	id[10] = 0xF0
	if got := id.LeadingZeros(); got != 80 {
		t.Errorf("0xF0 at byte 10: %d", got)
	}
}

func TestCloserTo(t *testing.T) {
	target := IDFromKey([]byte("t"))
	near := target
	near[IDBytes-1] ^= 0x01
	far := target
	far[0] ^= 0x80
	if !target.CloserTo(near, far) {
		t.Error("near not closer than far")
	}
	if target.CloserTo(far, near) {
		t.Error("far reported closer than near")
	}
}

func TestRandomIDsDistinct(t *testing.T) {
	rng := stats.NewRNG(9)
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := RandomID(rng)
		if seen[id] {
			t.Fatal("duplicate random ID")
		}
		seen[id] = true
	}
}

func TestStringForms(t *testing.T) {
	id := IDFromKey([]byte("x"))
	if len(id.String()) != IDBytes*2 {
		t.Errorf("String len %d", len(id.String()))
	}
	if len(id.Short()) != 8 {
		t.Errorf("Short len %d", len(id.Short()))
	}
	if (ID{}).IsZero() != true || id.IsZero() {
		t.Error("IsZero wrong")
	}
}

// TestPopulationClosest: the descent names the member a full scan finds
// XOR-closest, for keys off the set and on it, and the numbering is the
// sorted order with duplicates dropped.
func TestPopulationClosest(t *testing.T) {
	rng := stats.NewRNG(21)
	if got := NewPopulation(nil).Closest(RandomID(rng)); got != (ID{}) {
		t.Errorf("empty population names %s", got.Short())
	}
	for _, n := range []int{1, 2, 3, 120, 2000} {
		ids := make([]ID, n)
		for i := range ids {
			ids[i] = RandomID(rng)
		}
		members := append([]ID(nil), ids...)
		p := NewPopulation(append(ids, members[0])) // a duplicate
		if len(p.sorted) != n || len(p.index) != n {
			t.Fatalf("n=%d: population of %d IDs, index %d", n, len(p.sorted), len(p.index))
		}
		for h, id := range p.sorted {
			if h > 0 && bytes.Compare(p.sorted[h-1][:], id[:]) >= 0 {
				t.Fatalf("n=%d: IDs out of order at %d", n, h)
			}
			if p.index[id] != uint32(h) {
				t.Fatalf("n=%d: %s indexed %d, sits at %d", n, id.Short(), p.index[id], h)
			}
		}
		keys := make([]ID, 200, 250)
		for i := range keys {
			keys[i] = RandomID(rng)
		}
		keys = append(keys, members[:min(n, 50)]...)
		for _, key := range keys {
			want := members[0]
			for _, id := range members[1:] {
				if key.DistanceCompare(id, want) < 0 {
					want = id
				}
			}
			if got := p.Closest(key); got != want {
				t.Fatalf("n=%d: Closest(%s) = %s, want %s", n, key.Short(), got.Short(), want.Short())
			}
		}
	}
}
