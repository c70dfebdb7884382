package seal_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/stats"
)

// TestSealerRoundTripProperty sweeps payload shapes through the cached
// Sealer under both randomness sources — crypto/rand and a seeded
// deterministic stream — asserting the package-level one-shot wrappers and
// the handle agree on round-trip behavior.
func TestSealerRoundTripProperty(t *testing.T) {
	sources := map[string]func() *seal.Sealer{
		"crypto/rand": func() *seal.Sealer {
			key, err := seal.NewKey()
			if err != nil {
				t.Fatal(err)
			}
			s, err := seal.NewSealer(key)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"seeded": func() *seal.Sealer {
			stream := stats.NewByteStream(99)
			key, err := seal.NewKeyFrom(stream)
			if err != nil {
				t.Fatal(err)
			}
			s, err := seal.NewSealerRand(key, stream)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, mk := range sources {
		t.Run(name, func(t *testing.T) {
			s := mk()
			rng := stats.NewRNG(7)
			for trial := 0; trial < 64; trial++ {
				plaintext := make([]byte, 1+rng.Intn(512))
				for i := range plaintext {
					plaintext[i] = byte(rng.Uint64())
				}
				var aad []byte
				if rng.Bool(0.5) {
					aad = []byte("context")
				}
				box, err := s.Encrypt(plaintext, aad)
				if err != nil {
					t.Fatal(err)
				}
				if len(box) != len(plaintext)+seal.Overhead() {
					t.Fatalf("overhead mismatch: %d vs %d+%d", len(box), len(plaintext), seal.Overhead())
				}
				back, err := s.Decrypt(box, aad)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(back, plaintext) {
					t.Fatalf("round trip mutated payload (%d bytes)", len(plaintext))
				}
				// The one-shot package path opens the handle's output too.
				back, err = seal.Decrypt(s.Key(), box, aad)
				if err != nil || !bytes.Equal(back, plaintext) {
					t.Fatalf("package Decrypt disagreed with Sealer: %v", err)
				}
			}
		})
	}
}

// TestSealerSeededDeterministic asserts two sealers over equal seeded
// streams emit byte-identical ciphertexts — the property seeded live runs
// rely on — while crypto/rand sealers never repeat a nonce.
func TestSealerSeededDeterministic(t *testing.T) {
	build := func() *seal.Sealer {
		stream := stats.NewByteStream(1234)
		key, err := seal.NewKeyFrom(stream)
		if err != nil {
			t.Fatal(err)
		}
		s, err := seal.NewSealerRand(key, stream)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	for i := 0; i < 8; i++ {
		boxA, err := a.Encrypt([]byte("deterministic payload"), nil)
		if err != nil {
			t.Fatal(err)
		}
		boxB, err := b.Encrypt([]byte("deterministic payload"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(boxA, boxB) {
			t.Fatalf("seal %d diverged under equal seeds", i)
		}
	}
}

// TestAppendEncryptPreservesPrefix asserts the append form writes after the
// existing bytes and produces a ciphertext Decrypt accepts.
func TestAppendEncryptPreservesPrefix(t *testing.T) {
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	s, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("header")
	out, err := s.AppendEncrypt(append([]byte(nil), prefix...), []byte("payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatalf("prefix clobbered: %x", out)
	}
	back, err := s.Decrypt(out[len(prefix):], nil)
	if err != nil || string(back) != "payload" {
		t.Fatalf("appended ciphertext failed to open: %v %q", err, back)
	}
}

// TestAppendEncryptOneAlloc pins the nil-dst seal to one allocation — nonce,
// ciphertext and tag reserved together — at 1 KiB and at the 1 MiB payload
// size, and pins its bytes: the digests were recorded from the two-step
// (nonce slice, then regrow) implementation on the same seeded stream, so
// the nonce draw and the sealed layout cannot move under onion/share goldens.
func TestAppendEncryptOneAlloc(t *testing.T) {
	for _, tc := range []struct {
		size   int
		golden string
	}{
		{1 << 10, "ec84616c1cd7099edfee7324f632ba5565c234015eea81414b9bb174940b1a55"},
		{1 << 20, "4fb458e993ea6324a4684f96bb451bfee96dd1cadfd66101c449f83610c46179"},
	} {
		stream := stats.NewByteStream(4321)
		key, err := seal.NewKeyFrom(stream)
		if err != nil {
			t.Fatal(err)
		}
		s, err := seal.NewSealerRand(key, stream)
		if err != nil {
			t.Fatal(err)
		}
		plain := make([]byte, tc.size)
		if _, err := stream.Read(plain); err != nil {
			t.Fatal(err)
		}
		box, err := s.AppendEncrypt(nil, plain, []byte("aad"))
		if err != nil {
			t.Fatal(err)
		}
		if len(box) != tc.size+seal.Overhead() {
			t.Errorf("%d B: sealed length %d, want %d", tc.size, len(box), tc.size+seal.Overhead())
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(box)); got != tc.golden {
			t.Errorf("%d B: sealed bytes moved: sha256 %s, want %s", tc.size, got, tc.golden)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			if box, err = s.AppendEncrypt(nil, plain, nil); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("%d B: AppendEncrypt(nil, ...) = %v allocs, want 1", tc.size, allocs)
		}
	}
}
