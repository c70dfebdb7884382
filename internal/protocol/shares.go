package protocol

import (
	"bytes"
	"errors"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
)

// Shares is the Shamir shares collected towards the key at one Ref, by a
// holder's custody or the adversary's collector, and Recover is the one rule
// by which both turn them into the key.
type Shares struct {
	// list holds one share per coordinate (m, X) in arrival order, its Data a
	// view into buf, or nil once two variants of the coordinate conflicted.
	list []shamir.Share
	buf  []byte
	// fresh is set while list has changed since the last Recover.
	fresh bool
}

// maxShares is how many coordinates one collection keeps, and so the most
// shares one Recover decodes: four times the largest honest collection (31
// column-key shares at one Ref, at the planner's shape of examples/voting).
// Without it a Ref's collection was bounded only by its distinct coordinates,
// 255 × 255, and one Berlekamp–Welch decode at s = 255 takes about 0.4 s.
const maxShares = 128

// ErrSharesFull is Add's refusal of a new coordinate at a collection that
// holds maxShares.
var ErrSharesFull = errors.New("protocol: share collection full")

// Add keeps a copy of share (the inbound bytes alias a recycled delivery
// buffer) and reports whether the collection changed. A variant of a kept
// share marks their coordinate as conflicting; anything else at a coordinate
// already held, or not of a key's length, is dropped. A new coordinate past
// maxShares is refused with ErrSharesFull.
func (s *Shares) Add(share shamir.Share) (bool, error) {
	if len(share.Data) != seal.KeySize {
		return false, nil
	}
	for i, have := range s.list {
		if have.M == share.M && have.X == share.X {
			if have.Data == nil || bytes.Equal(have.Data, share.Data) {
				return false, nil
			}
			s.list[i].Data, s.fresh = nil, true
			return true, nil
		}
	}
	if len(s.list) == maxShares {
		return false, ErrSharesFull
	}
	if s.list == nil { // room for an (m, 4) scatter's key shares, in one allocation
		first := new(struct {
			list [4]shamir.Share
			buf  [4 * seal.KeySize]byte
		})
		s.list, s.buf = first.list[:0], first.buf[:0]
	}
	at := len(s.buf)
	s.buf = append(s.buf, share.Data...)
	share.Data = s.buf[at:len(s.buf):len(s.buf)]
	s.list, s.fresh = append(s.list, share), true
	return true, nil
}

// reset empties the collection and zeroes the key material it held, keeping
// its buffers for the next collection.
func (s *Shares) reset() {
	clear(s.buf)
	clear(s.list)
	*s = Shares{list: s.list[:0], buf: s.buf[:0]}
}

// Recover runs once per change to the collection, with try as the oracle
// (the package at the Ref, which opens only under the true key), and reports
// whether try accepted a key. Its group is the shares claiming the most
// common threshold m (the smaller on a tie), less conflicting coordinates.
// Below m shares nothing is done. Else the first m are interpolated and their
// key tried; if try rejects it and the group has s >= m+2 shares, shamir.Decode
// (Berlekamp–Welch, correcting up to ⌊(s-m)/2⌋ forged shares) offers its key
// if it is another. An honest collection pays one interpolation.
func (s *Shares) Recover(try func(seal.Key) bool) bool {
	if !s.fresh {
		return false
	}
	s.fresh = false
	var claims [256]uint16
	for _, sh := range s.list {
		claims[sh.M]++
	}
	m := 1
	for c := 2; c < len(claims); c++ {
		if claims[c] > claims[m] {
			m = c
		}
	}
	group := make([]shamir.Share, 0, 16) // on the stack for up to 16 shares
	for _, sh := range s.list {
		if int(sh.M) == m && sh.Data != nil {
			group = append(group, sh)
		}
	}
	if len(group) < m {
		return false
	}
	var raw [seal.KeySize]byte
	first, _ := shamir.AppendCombine(raw[:0], group, m)
	if len(first) == seal.KeySize && try(seal.Key(first)) {
		return true
	}
	if len(group) < m+2 {
		return false
	}
	second, _ := shamir.Decode(group, m)
	return len(second) == seal.KeySize && !bytes.Equal(second, first) && try(seal.Key(second))
}
