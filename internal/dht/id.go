// Package dht implements a Kademlia distributed hash table: 160-bit node
// IDs under the XOR metric, k-bucket routing tables, iterative FIND_NODE
// lookups, and application payloads routed to the owners of a key
// (SendBufToOwners). It stores no values: it is the substrate the
// self-emerging key routing protocol (internal/protocol) runs on, standing
// in for the Overlay Weaver toolkit used by the paper, and runs unchanged
// over the simulated in-memory network or real UDP sockets.
package dht

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"selfemerge/internal/stats"
)

// IDBytes is the size of a node/key identifier: 160 bits, Kademlia's
// classic width.
const IDBytes = 20

// IDBits is the identifier width in bits.
const IDBits = IDBytes * 8

// ID is a 160-bit Kademlia identifier for both nodes and keys.
type ID [IDBytes]byte

// IDFromBytes copies a 20-byte slice into an ID.
func IDFromBytes(b []byte) (ID, error) {
	var id ID
	if len(b) != IDBytes {
		return ID{}, fmt.Errorf("dht: id must be %d bytes, got %d", IDBytes, len(b))
	}
	copy(id[:], b)
	return id, nil
}

// IDFromKey derives the identifier owning an arbitrary byte key: the
// truncated SHA-256 of the key, the standard DHT key placement rule.
func IDFromKey(key []byte) ID {
	sum := sha256.Sum256(key)
	var id ID
	copy(id[:], sum[:IDBytes])
	return id
}

// RandomID draws a uniform identifier from rng.
func RandomID(rng *stats.RNG) ID {
	var id ID
	for i := 0; i < IDBytes; i += 8 {
		v := rng.Uint64()
		for j := 0; j < 8 && i+j < IDBytes; j++ {
			id[i+j] = byte(v >> (8 * j))
		}
	}
	return id
}

// String returns the hexadecimal form.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short returns an abbreviated hex prefix for logs.
func (id ID) Short() string { return hex.EncodeToString(id[:4]) }

// IsZero reports whether the ID is all zeroes.
func (id ID) IsZero() bool { return id == ID{} }

// XOR returns the Kademlia distance between two identifiers.
func (id ID) XOR(other ID) ID {
	var out ID
	for i := range id {
		out[i] = id[i] ^ other[i]
	}
	return out
}

// LeadingZeros returns the number of leading zero bits (0..160).
func (id ID) LeadingZeros() int {
	for i, b := range id {
		if b != 0 {
			return i*8 + bits.LeadingZeros8(b)
		}
	}
	return IDBits
}

// BucketIndex returns the k-bucket index for a peer at the given XOR
// distance: 0 for the farthest half of the space, IDBits-1 for the nearest.
// The second return is false for the zero distance (self).
func (id ID) BucketIndex(peer ID) (int, bool) {
	d := id.XOR(peer)
	lz := d.LeadingZeros()
	if lz == IDBits {
		return 0, false
	}
	return lz, true
}

// Shard maps the identifier onto one of `shards` equal-width zones of the
// identifier space: floor(top64(id) * shards / 2^64), a fixed-point multiply
// with exact zone boundaries and no modulo bias. It is the zone→shard
// ownership rule of the partitioned live engine: ownership is a pure
// function of the identifier, so churn replacements — which reuse their
// predecessor's identifier — always land on the predecessor's shard, and
// contiguous zones keep the Kademlia neighbourhoods (where most lookup
// traffic concentrates) largely shard-local.
func (id ID) Shard(shards int) int {
	if shards <= 1 {
		return 0
	}
	hi, _ := bits.Mul64(binary.BigEndian.Uint64(id[:8]), uint64(shards))
	return int(hi)
}

// CloserTo reports whether a is closer to id than b under XOR distance.
func (id ID) CloserTo(a, b ID) bool {
	return id.DistanceCompare(a, b) < 0
}

// DistanceCompare orders a and b by XOR distance from id: -1 when a is
// closer, +1 when b is, 0 at equal distance (only when a == b). It is the
// comparison at the core of every routing decision — bucket sorts, shortlist
// sorts, owner resolution — so it works word-wise on big-endian lanes
// without materializing the distance arrays XOR would build.
func (id ID) DistanceCompare(a, b ID) int {
	for ofs := 0; ofs+8 <= IDBytes; ofs += 8 {
		w := binary.BigEndian.Uint64(id[ofs:])
		wa := binary.BigEndian.Uint64(a[ofs:]) ^ w
		wb := binary.BigEndian.Uint64(b[ofs:]) ^ w
		if wa != wb {
			if wa < wb {
				return -1
			}
			return 1
		}
	}
	w := binary.BigEndian.Uint32(id[IDBytes-4:])
	wa := binary.BigEndian.Uint32(a[IDBytes-4:]) ^ w
	wb := binary.BigEndian.Uint32(b[IDBytes-4:]) ^ w
	switch {
	case wa < wb:
		return -1
	case wa > wb:
		return 1
	default:
		return 0
	}
}

// Population is the frozen set of a network's node IDs, for a network that
// knows every node it will ever have (a simulated one: churn replacements
// keep their predecessors' IDs). It numbers the IDs in sorted order, the
// numbering the ID books of the loops it is given take as theirs
// (Scratch.SetPopulation), and names the member XOR-closest to any key, the
// key's true owner, against which those loops count their owner walks. It
// is only read once made, so the loops of one network share it.
type Population struct {
	sorted []ID
	index  map[ID]uint32 // by ID, its position in sorted
}

// NewPopulation returns the population of ids, which it keeps, sorted in
// place: the caller gives the slice up.
func NewPopulation(ids []ID) *Population {
	slices.SortFunc(ids, func(a, b ID) int { return bytes.Compare(a[:], b[:]) })
	p := &Population{sorted: slices.Compact(ids), index: make(map[ID]uint32, len(ids))}
	for h, id := range p.sorted {
		p.index[id] = uint32(h)
	}
	return p
}

// Closest returns the member XOR-closest to key, or the zero ID for an empty
// population. The members that share key's first b bits are a run of the
// sorted array; bit by bit, the run keeps its half that agrees with key
// there, unless that half is empty, until one member is left. Each bit is a
// binary search, and after about log2(N) bits one member is left.
func (p *Population) Closest(key ID) ID {
	lo, hi := 0, len(p.sorted)
	if lo == hi {
		return ID{}
	}
	for bit := 0; hi-lo > 1; bit++ {
		i, mask := bit/8, byte(0x80)>>(bit%8)
		set := lo + sort.Search(hi-lo, func(j int) bool { return p.sorted[lo+j][i]&mask != 0 })
		if key[i]&mask != 0 {
			if set < hi {
				lo = set
			}
		} else if set > lo {
			hi = set
		}
	}
	return p.sorted[lo]
}
