package shamir

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// corrupt returns shares with the data of those at the given indices
// replaced: every byte moves, so each is wrong in every secret position.
func corrupt(shares []Share, at []int, r *rand.Rand) []Share {
	out := make([]Share, len(shares))
	copy(out, shares)
	for _, i := range at {
		data := bytes.Clone(out[i].Data)
		for j := range data {
			data[j] ^= byte(1 + r.IntN(255))
		}
		out[i].Data = data
	}
	return out
}

// TestDecodeCorrectsUpToBound is Decode's property over random thresholds:
// s >= m shares of an (m, n) split, any ⌊(s-m)/2⌋ of them wrong, decode to
// the exact secret; one wrong share more yields an error or another secret,
// never the true one and never a panic.
func TestDecodeCorrectsUpToBound(t *testing.T) {
	r := rand.New(rand.NewPCG(45, 2017))
	secret := []byte("sixteen byte key")
	for trial := range 400 {
		n := 1 + r.IntN(40)
		m := 1 + r.IntN(n)
		shares, err := Split(secret, m, n)
		if err != nil {
			t.Fatal(err)
		}
		r.Shuffle(n, func(i, j int) { shares[i], shares[j] = shares[j], shares[i] })
		s := m + r.IntN(n-m+1)
		shares = shares[:s]
		bound := (s - m) / 2
		wrong := r.Perm(s)
		got, err := Decode(corrupt(shares, wrong[:r.IntN(bound+1)], r), m)
		if err != nil || !bytes.Equal(got, secret) {
			t.Fatalf("trial %d: (m=%d, s=%d) within the bound of %d wrong shares: %x, %v", trial, m, s, bound, got, err)
		}
		if bound+1 <= s {
			got, err := Decode(corrupt(shares, wrong[:bound+1+r.IntN(s-bound)], r), m)
			if err == nil && bytes.Equal(got, secret) {
				t.Fatalf("trial %d: (m=%d, s=%d) decoded the secret past the bound of %d wrong shares", trial, m, s, bound)
			}
		}
	}
}

// TestDecodeRejectsMalformedShares: Decode checks what Combine checks, across
// every share rather than the first m.
func TestDecodeRejectsMalformedShares(t *testing.T) {
	shares, err := Split([]byte("secret"), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		shares []Share
		m      int
		want   error
	}{
		"threshold 0":       {shares, 0, ErrThreshold},
		"too few":           {shares[:1], 2, ErrTooFewShares},
		"zero X":            {append(shares[:3:3], Share{X: 0, Data: shares[3].Data}), 2, ErrShareMismatch},
		"repeated X":        {append(shares[:3:3], Share{X: shares[0].X, Data: shares[3].Data}), 2, ErrShareMismatch},
		"short last share":  {append(shares[:3:3], Share{X: 4, Data: shares[3].Data[:2]}), 2, ErrShareMismatch},
		"empty data at all": {[]Share{{X: 1}, {X: 2}}, 2, ErrShareMismatch},
	} {
		if _, err := Decode(c.shares, c.m); err != c.want {
			t.Errorf("%s: Decode error %v, want %v", name, err, c.want)
		}
	}
}

// FuzzDecode drives Decode with an honest split carrying a fuzzed number of
// wrong shares — within the bound it must return the secret — and with
// shares made of raw fuzz bytes, which it must reject or decode without
// panicking.
func FuzzDecode(f *testing.F) {
	f.Add([]byte("key"), uint64(1), uint8(3), uint8(7), uint8(2))
	f.Add([]byte{0}, uint64(9), uint8(1), uint8(1), uint8(0))
	f.Add([]byte("a longer secret to share"), uint64(3), uint8(5), uint8(23), uint8(9))
	f.Add([]byte{1, 7, 1, 8, 0, 3, 2, 2}, uint64(4), uint8(2), uint8(4), uint8(4))
	f.Fuzz(func(t *testing.T, secret []byte, seed uint64, m, n, wrong uint8) {
		var raw []Share
		for b := secret; len(b) >= 2 && len(raw) < 12; b = b[2:] {
			raw = append(raw, Share{X: b[0], Data: b[1:2]})
		}
		_, _ = Decode(raw, 1+int(m)%4)
		if len(secret) == 0 || len(secret) > 16 {
			return
		}
		r := rand.New(rand.NewPCG(seed, 1))
		size := 1 + int(n)%24
		threshold := 1 + int(m)%size
		shares, err := SplitRand(nil, secret, threshold, size)
		if err != nil {
			t.Fatal(err)
		}
		bad := int(wrong) % (size + 1)
		got, err := Decode(corrupt(shares, r.Perm(size)[:bad], r), threshold)
		if bad <= (size-threshold)/2 && (err != nil || !bytes.Equal(got, secret)) {
			t.Fatalf("(m=%d, n=%d) with %d wrong shares: %x, %v", threshold, size, bad, got, err)
		}
	})
}
