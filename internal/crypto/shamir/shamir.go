// Package shamir implements Shamir's (m, n) threshold secret sharing over
// GF(2^8), the mechanism the key share routing scheme (Section III-D) uses
// to deliver onion layer keys just-in-time: a key split into n shares can be
// recovered from any m of them, tolerating up to n-m shares lost to churn or
// withheld by malicious holders, while m-1 shares reveal nothing.
//
// Each byte of the secret is shared independently with a random polynomial
// of degree m-1; share j carries the polynomial evaluations at x = j. The
// field is GF(2^8) with the AES reduction polynomial x^8+x^4+x^3+x+1.
package shamir

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Share is one fragment of a split secret. M is the split's threshold, which
// is not secret; X identifies the evaluation point (1..n); Data holds one
// byte per secret byte.
type Share struct {
	M, X byte
	Data []byte
}

var (
	// ErrThreshold is returned for invalid (m, n) parameters.
	ErrThreshold = errors.New("shamir: need 1 <= m <= n <= 255")
	// ErrTooFewShares is returned when fewer than m shares are combined.
	ErrTooFewShares = errors.New("shamir: not enough shares to reconstruct")
	// ErrShareMismatch is returned when shares disagree on length or carry
	// duplicate evaluation points.
	ErrShareMismatch = errors.New("shamir: inconsistent shares")
	// ErrDecode is returned when shares hold more errors than Decode corrects.
	ErrDecode = errors.New("shamir: too many wrong shares to decode")
)

// Split shares secret into n shares with reconstruction threshold m,
// drawing the polynomial coefficients from crypto/rand. The secret may be
// any non-empty byte string.
func Split(secret []byte, m, n int) ([]Share, error) {
	return SplitRand(nil, secret, m, n)
}

// SplitRand is Split with an explicit randomness source (nil means
// crypto/rand): deterministic sharing under a seeded stream. The whole
// polynomial set — (m-1) coefficients for each of the len(secret) byte
// positions — is sampled in one batched draw, so splitting a 32-byte key
// costs one Read instead of one syscall per secret byte. The byte-to-
// coefficient mapping matches the historical per-byte draws exactly: the
// coefficients of position i are the next m-1 stream bytes.
func SplitRand(r io.Reader, secret []byte, m, n int) ([]Share, error) {
	if m < 1 || n < m || n > 255 {
		return nil, ErrThreshold
	}
	if len(secret) == 0 {
		return nil, errors.New("shamir: empty secret")
	}
	if r == nil {
		r = rand.Reader //lint:allow detrand real deployments key from the OS CSPRNG; deterministic runs inject a seeded reader
	}
	shares := make([]Share, n)
	data := make([]byte, n*len(secret)) // one backing array for all shares
	for j := range shares {
		shares[j] = Share{M: byte(m), X: byte(j + 1), Data: data[j*len(secret) : (j+1)*len(secret) : (j+1)*len(secret)]}
	}
	coeffs := make([]byte, (m-1)*len(secret))
	if _, err := io.ReadFull(r, coeffs); err != nil {
		return nil, fmt.Errorf("shamir: sampling polynomial: %w", err)
	}
	for i, b := range secret {
		cs := coeffs[i*(m-1) : (i+1)*(m-1)]
		for j := range shares {
			shares[j].Data[i] = evalPoly(b, cs, shares[j].X)
		}
	}
	return shares, nil
}

// Combine reconstructs the secret from at least m distinct shares produced
// by Split with threshold m. Extra shares are fine; they are not verified
// against each other (Shamir sharing is not authenticated — the protocol
// seals shares inside authenticated onion layers instead).
func Combine(shares []Share, m int) ([]byte, error) {
	return AppendCombine(nil, shares, m)
}

// AppendCombine is Combine appending the secret to dst: it allocates nothing
// when dst has room, so a caller can interpolate into a stack buffer.
func AppendCombine(dst []byte, shares []Share, m int) ([]byte, error) {
	use := shares
	if m >= 1 && len(use) > m {
		use = use[:m]
	}
	length, err := check(use, m)
	if err != nil {
		return nil, err
	}

	// Lagrange interpolation at x = 0, per byte position. The basis factors
	// depend only on the share x-coordinates, so compute them once; distinct
	// nonzero coordinates bound m at 255.
	var basis [255]byte
	for j := range use {
		num, den := byte(1), byte(1)
		for i := range use {
			if i == j {
				continue
			}
			num = mul(num, use[i].X)          // (0 - x_i) == x_i in GF(2^8)
			den = mul(den, use[j].X^use[i].X) // (x_j - x_i)
		}
		basis[j] = mul(num, inv(den))
	}
	dst = slices.Grow(dst, length)
	for pos := 0; pos < length; pos++ {
		var acc byte
		for j := range use {
			acc ^= mul(use[j].Data[pos], basis[j])
		}
		dst = append(dst, acc)
	}
	return dst, nil
}

// check validates m >= 1 and at least m shares, with distinct nonzero
// evaluation points and data of one nonzero length, which it returns.
func check(shares []Share, m int) (int, error) {
	if m < 1 {
		return 0, ErrThreshold
	}
	if len(shares) < m {
		return 0, ErrTooFewShares
	}
	length := len(shares[0].Data)
	var seen [256]bool
	for _, s := range shares {
		if len(s.Data) != length || length == 0 || s.X == 0 || seen[s.X] {
			return 0, ErrShareMismatch
		}
		seen[s.X] = true
	}
	return length, nil
}

// Decode reconstructs the secret from s shares of a threshold-m split of
// which up to e = ⌊(s-m)/2⌋ may be wrong: Shamir shares are a Reed–Solomon
// codeword, and Decode runs Berlekamp–Welch on each secret byte. It solves
// Q(x) = y·E(x) at every share, for E monic of degree e and Q of degree
// below m+e, and divides. With more wrong shares it returns ErrDecode or a
// wrong secret. Its cost is cubic in s per secret byte.
func Decode(shares []Share, m int) ([]byte, error) {
	length, err := check(shares, m)
	if err != nil {
		return nil, err
	}
	e := (len(shares) - m) / 2
	nq := m + e
	sys := make([][]byte, len(shares)) // Q's unknowns, E's below x^e, y·x^e
	for i := range sys {
		sys[i] = make([]byte, nq+e+1)
	}
	secret := make([]byte, length)
	for pos := range secret {
		for i, sh := range shares {
			for j, xj := 0, byte(1); j < nq; j, xj = j+1, mul(xj, sh.X) {
				sys[i][j] = xj
			}
			for j := range e + 1 {
				sys[i][nq+j] = mul(sh.Data[pos], sys[i][j])
			}
		}
		q := solve(sys)
		if q == nil {
			return nil, ErrDecode
		}
		// P = Q / E, E monic: P(0) is the last quotient coefficient, and a
		// remainder means more than e errors.
		for d := nq - 1; d >= e; d-- {
			for j, ej := range q[nq:] {
				q[d-e+j] ^= mul(q[d], ej)
			}
			secret[pos] = q[d]
		}
		if slices.ContainsFunc(q[:e], func(r byte) bool { return r != 0 }) {
			return nil, ErrDecode
		}
	}
	return secret, nil
}

// solve brings the augmented system sys to reduced row echelon form and
// returns a solution whose free unknowns are zero, or nil if it has none.
func solve(sys [][]byte) []byte {
	n := len(sys[0]) - 1
	var pivots []int // the pivot column of each row, top down
	for c := 0; c < n && len(pivots) < len(sys); c++ {
		r := len(pivots)
		p := r + slices.IndexFunc(sys[r:], func(row []byte) bool { return row[c] != 0 })
		if p < r {
			continue
		}
		pivot, f := sys[p], inv(sys[p][c])
		sys[r], sys[p] = pivot, sys[r]
		for j := c; j <= n; j++ {
			pivot[j] = mul(pivot[j], f)
		}
		for i, row := range sys {
			if f := row[c]; i != r && f != 0 {
				for j := c; j <= n; j++ {
					row[j] ^= mul(f, pivot[j])
				}
			}
		}
		pivots = append(pivots, c)
	}
	if slices.ContainsFunc(sys[len(pivots):], func(row []byte) bool { return row[n] != 0 }) {
		return nil
	}
	sol := make([]byte, n)
	for i, c := range pivots {
		sol[c] = sys[i][n]
	}
	return sol
}

// evalPoly evaluates secret + c1*x + c2*x^2 + ... at x using Horner's rule.
func evalPoly(secret byte, coeffs []byte, x byte) byte {
	acc := byte(0)
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = mul(acc, x) ^ coeffs[i]
	}
	return mul(acc, x) ^ secret
}

// The field's log and antilog tables over the generator 0x03. gfExp holds two
// periods, so a product's exponent sum indexes it without a reduction mod 255.
var gfLog, gfExp = gfTables()

func gfTables() (log [256]byte, exp [510]byte) {
	x := byte(1)
	for i := range 255 {
		exp[i], exp[i+255] = x, x
		log[x] = byte(i)
		// x·0x03 = x·0x02 ^ x, the doubling reduced modulo 0x11b.
		double := x << 1
		if x&0x80 != 0 {
			double ^= 0x1b
		}
		x ^= double
	}
	return log, exp
}

// mul multiplies in GF(2^8) modulo x^8+x^4+x^3+x+1 (0x11b), by table.
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// inv returns the multiplicative inverse in GF(2^8); inv(0) is 0 by
// convention (never reached by Combine, which rejects duplicate points).
func inv(a byte) byte {
	if a == 0 {
		return 0
	}
	return gfExp[255-int(gfLog[a])]
}
