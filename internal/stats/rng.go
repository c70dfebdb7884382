// Package stats provides deterministic pseudo-random number generation,
// sampling from the distributions used by the self-emerging data simulator
// (exponential lifetimes, binomial and hypergeometric adversary draws), and
// summary statistics for Monte Carlo experiment results.
//
// All generators are seeded explicitly so that every simulation in this
// repository is reproducible: the same seed always yields the same run.
package stats

import (
	"encoding/binary"
	"math"
	"math/bits"
	mathrand "math/rand/v2"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256++ with a SplitMix64 seeding sequence. It is not safe for
// concurrent use; create one RNG per goroutine (see Split).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed (see Seeded).
func NewRNG(seed uint64) *RNG {
	r := Seeded(seed)
	return &r
}

// Seeded returns, by value, a generator seeded from seed via SplitMix64,
// guaranteeing a well-mixed internal state even for small or adjacent seeds.
func Seeded(seed uint64) RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitMix64(sm)
	}
	// Never xoshiro's all-zero state: SplitMix64's output mix is a bijection,
	// so of four distinct states at most one maps to zero.
	return r
}

// splitMix64 advances the SplitMix64 state and returns (newState, output).
func splitMix64(state uint64) (uint64, uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent generator from r. The child stream is
// decorrelated from the parent by reseeding through SplitMix64, so parent and
// child may be used on different goroutines without sharing state.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// Mix64 derives a decorrelated substream seed from a base seed and a stream
// index, without constructing a generator: splitMix64 evaluated at the base
// advanced stream golden-ratio increments (the same constant splitMix64
// itself steps by, so distinct streams sample well-separated points of the
// sequence). The scenario engine keys each shard's private network off
// Mix64(pointSeed, shard), making every shard an independent replica that is
// still a pure function of the point seed.
func Mix64(seed, stream uint64) uint64 {
	_, out := splitMix64(seed + stream*0x9e3779b97f4a7c15)
	return out
}

// ByteStream is a deterministic, seedable stream of pseudo-random bytes: a
// ChaCha8 generator keyed from a 64-bit seed through SplitMix64. It
// implements io.Reader (Read never fails) and stands in for crypto/rand
// wherever the protocol draws key material, nonces or identifiers, making
// whole live runs — including every ciphertext byte — a pure function of
// their seed, with no per-draw syscall. Not safe for concurrent use; create
// one stream per network (or mission).
//
// ByteStream output is NOT cryptographically secure key material for real
// deployments: the 64-bit seed is the entire secret. Production binaries
// keep the crypto/rand default.
type ByteStream struct {
	c *mathrand.ChaCha8
}

// NewByteStream returns a stream seeded from seed: the ChaCha8 key is four
// decorrelated SplitMix64 substream outputs, so even adjacent seeds yield
// unrelated streams.
func NewByteStream(seed uint64) *ByteStream {
	var key [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(key[i*8:], Mix64(seed, uint64(i)))
	}
	return &ByteStream{c: mathrand.NewChaCha8(key)}
}

// Read fills p with the next pseudo-random bytes; it always succeeds.
func (s *ByteStream) Read(p []byte) (int, error) {
	return s.c.Read(p)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n) using Lemire's unbiased
// multiply-shift rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n called with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= threshold {
			return hi
		}
	}
}

// Shuffle pseudo-randomizes the order of n elements using swap, implementing
// the Fisher-Yates shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	default:
		return r.Float64() < p
	}
}

// Exp returns an exponentially distributed value with the given mean
// (i.e. rate 1/mean). It panics if mean <= 0.
func (r *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("stats: Exp called with non-positive mean")
	}
	// Inversion: -mean * ln(1-U); 1-U avoids log(0) because Float64 < 1.
	return -mean * math.Log(1-r.Float64())
}

// SampleWithoutReplacement returns k distinct values drawn uniformly from
// [0, n). It panics if k > n or k < 0. The result is in random order.
//
// For k much smaller than n it uses rejection via a set; otherwise it uses a
// partial Fisher-Yates shuffle.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: SampleWithoutReplacement requires 0 <= k <= n")
	}
	if k == 0 {
		return nil
	}
	if k*8 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			v := r.Intn(n)
			if _, dup := seen[v]; dup {
				continue
			}
			seen[v] = struct{}{}
			out = append(out, v)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
