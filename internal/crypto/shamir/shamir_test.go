package shamir

import (
	"bytes"
	"testing"
	"testing/quick"

	"selfemerge/internal/stats"
)

func TestSplitCombineRoundTrip(t *testing.T) {
	secret := []byte("the self-emerging key")
	tests := []struct{ m, n int }{
		{1, 1}, {1, 5}, {2, 3}, {3, 5}, {5, 5}, {10, 20},
	}
	for _, tc := range tests {
		shares, err := Split(secret, tc.m, tc.n)
		if err != nil {
			t.Fatalf("(%d,%d): %v", tc.m, tc.n, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("(%d,%d): got %d shares", tc.m, tc.n, len(shares))
		}
		got, err := Combine(shares[:tc.m], tc.m)
		if err != nil {
			t.Fatalf("(%d,%d): combine: %v", tc.m, tc.n, err)
		}
		if !bytes.Equal(got, secret) {
			t.Errorf("(%d,%d): reconstruction mismatch", tc.m, tc.n)
		}
	}
}

func TestAnySubsetOfMReconstructs(t *testing.T) {
	secret := []byte{0x00, 0xff, 0x42, 0x13, 0x37}
	const m, n = 3, 6
	shares, err := Split(secret, m, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		idx := rng.SampleWithoutReplacement(n, m)
		subset := make([]Share, 0, m)
		for _, i := range idx {
			subset = append(subset, shares[i])
		}
		got, err := Combine(subset, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, secret) {
			t.Fatalf("subset %v failed to reconstruct", idx)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(11)
	err := quick.Check(func(secret []byte, seed uint64) bool {
		if len(secret) == 0 {
			secret = []byte{1}
		}
		n := int(seed%10) + 1
		m := int(seed/10%uint64(n)) + 1
		shares, err := Split(secret, m, n)
		if err != nil {
			return false
		}
		// Shuffle then take an arbitrary m-subset.
		rng.Shuffle(len(shares), func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		got, err := Combine(shares[:m], m)
		return err == nil && bytes.Equal(got, secret)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestBelowThresholdRevealsNothing(t *testing.T) {
	// With threshold m, any m-1 shares are consistent with EVERY possible
	// secret: interpolating the m-1 shares plus a forged point (x=another
	// share id, arbitrary y) must always produce some valid polynomial. We
	// verify the weaker statistical property directly: reconstructing from
	// m-1 real shares plus one uniformly random fake share yields a
	// uniformly varying secret, not the true one.
	secret := []byte{0xAB}
	const m, n = 3, 5
	shares, err := Split(secret, m, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	hits := 0
	const trials = 512
	for i := 0; i < trials; i++ {
		fake := Share{X: shares[m-1].X, Data: []byte{byte(rng.Intn(256))}}
		got, err := Combine([]Share{shares[0], shares[1], fake}, m)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] == secret[0] {
			hits++
		}
	}
	// Expected ~trials/256 hits; far more would mean leakage.
	if hits > trials/256*4+4 {
		t.Errorf("secret recovered %d/%d times from m-1 shares; leakage", hits, trials)
	}
}

func TestSharesDiffer(t *testing.T) {
	shares, err := Split([]byte("payload"), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range shares {
		for j := i + 1; j < len(shares); j++ {
			if shares[i].X == shares[j].X {
				t.Errorf("duplicate X %d", shares[i].X)
			}
		}
	}
}

func TestCombineErrors(t *testing.T) {
	shares, err := Split([]byte("s"), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Combine(shares[:1], 2); err != ErrTooFewShares {
		t.Errorf("too few: %v", err)
	}
	dup := []Share{shares[0], shares[0]}
	if _, err := Combine(dup, 2); err != ErrShareMismatch {
		t.Errorf("duplicate: %v", err)
	}
	bad := []Share{shares[0], {X: shares[1].X, Data: []byte{1, 2}}}
	if _, err := Combine(bad, 2); err != ErrShareMismatch {
		t.Errorf("length mismatch: %v", err)
	}
	zero := []Share{shares[0], {X: 0, Data: []byte{1}}}
	if _, err := Combine(zero, 2); err != ErrShareMismatch {
		t.Errorf("zero X: %v", err)
	}
	if _, err := Combine(shares, 0); err != ErrThreshold {
		t.Errorf("zero threshold: %v", err)
	}
}

func TestSplitErrors(t *testing.T) {
	if _, err := Split([]byte("s"), 0, 3); err != ErrThreshold {
		t.Errorf("m=0: %v", err)
	}
	if _, err := Split([]byte("s"), 4, 3); err != ErrThreshold {
		t.Errorf("m>n: %v", err)
	}
	if _, err := Split([]byte("s"), 1, 256); err != ErrThreshold {
		t.Errorf("n=256: %v", err)
	}
	if _, err := Split(nil, 1, 2); err == nil {
		t.Error("empty secret accepted")
	}
}

func TestGFFieldAxioms(t *testing.T) {
	// Multiplicative inverse and associativity over random triples.
	err := quick.Check(func(a, b, c byte) bool {
		if mul(a, mul(b, c)) != mul(mul(a, b), c) {
			return false
		}
		if mul(a, b) != mul(b, a) {
			return false
		}
		// Distributivity over GF(2) addition (xor).
		if mul(a, b^c) != mul(a, b)^mul(a, c) {
			return false
		}
		if a != 0 && mul(a, inv(a)) != 1 {
			return false
		}
		return mul(a, 1) == a && mul(a, 0) == 0
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// mulRef is GF(2^8) multiplication modulo 0x11b as a shift-and-add loop, the
// reference the table-driven mul is checked against.
func mulRef(a, b byte) byte {
	var p byte
	for b > 0 {
		if b&1 == 1 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// invRef is a^254 by square-and-multiply over mulRef: a^-1 for a != 0, since
// the multiplicative group has order 255, and 0 for a == 0.
func invRef(a byte) byte {
	result, base := byte(1), a
	for exp := 254; exp > 0; exp >>= 1 {
		if exp&1 == 1 {
			result = mulRef(result, base)
		}
		base = mulRef(base, base)
	}
	return result
}

// TestGFTablesMatchReference: the log/exp tables give the bit-loop product
// for every one of the 65,536 operand pairs, and its inverse for every byte.
func TestGFTablesMatchReference(t *testing.T) {
	for a := range 256 {
		if got, want := inv(byte(a)), invRef(byte(a)); got != want {
			t.Errorf("inv(%#02x) = %#02x, want %#02x", a, got, want)
		}
		for b := range 256 {
			if got, want := mul(byte(a), byte(b)), mulRef(byte(a), byte(b)); got != want {
				t.Fatalf("mul(%#02x, %#02x) = %#02x, want %#02x", a, b, got, want)
			}
		}
	}
}
