// Package dht implements a Kademlia distributed hash table: 160-bit node
// IDs under the XOR metric, k-bucket routing tables, iterative FIND_NODE
// lookups, and application payloads routed to the owners of a key
// (SendBufToOwners). It stores no values: it is the substrate the
// self-emerging key routing protocol (internal/protocol) runs on, standing
// in for the Overlay Weaver toolkit used by the paper, and runs unchanged
// over the simulated in-memory network or real UDP sockets.
package dht

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"

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
