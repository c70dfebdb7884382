// Package seal provides the authenticated encryption used throughout the
// self-emerging data protocol: AES-256-GCM with random nonces. Onion layers,
// cloud payloads and the secret key envelope are all sealed with this
// package.
//
// The Sealer handle caches the expanded AES-GCM state for one key, so a
// mission that seals many layers (or many onions) under the same key pays
// the key schedule once; it also carries the nonce randomness source, which
// defaults to crypto/rand and can be a deterministic seeded stream
// (stats.ByteStream) for reproducible simulation runs. The package-level
// Encrypt/Decrypt are thin one-shot wrappers.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// KeySize is the size of a sealing key in bytes (AES-256).
const KeySize = 32

// ErrKeySize is returned when a key is not KeySize bytes long.
var ErrKeySize = errors.New("seal: key must be 32 bytes")

// ErrDecrypt is returned when authentication fails or the ciphertext is
// malformed. Callers must treat it as "wrong key or tampered data" without
// distinguishing the two.
var ErrDecrypt = errors.New("seal: message authentication failed")

// Key is a symmetric sealing key.
type Key [KeySize]byte

// NewKey generates a fresh random key from crypto/rand.
func NewKey() (Key, error) {
	return NewKeyFrom(nil)
}

// NewKeyFrom generates a fresh key from r (nil means crypto/rand).
func NewKeyFrom(r io.Reader) (Key, error) {
	if r == nil {
		r = rand.Reader //lint:allow detrand real deployments key from the OS CSPRNG; deterministic runs inject a seeded reader
	}
	var k Key
	if _, err := io.ReadFull(r, k[:]); err != nil {
		return Key{}, fmt.Errorf("seal: generating key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies a 32-byte slice into a Key.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return Key{}, ErrKeySize
	}
	copy(k[:], b)
	return k, nil
}

// Bytes returns the key material as a fresh slice.
func (k Key) Bytes() []byte {
	out := make([]byte, KeySize)
	copy(out, k[:])
	return out
}

// Sealer is the cached cipher state for one key: the expanded AES-GCM AEAD
// plus the nonce randomness source. Reuse one Sealer for every seal/open
// under the same key instead of re-running the key schedule per call. Not
// safe for concurrent use when the nonce source is a deterministic stream.
type Sealer struct {
	key  Key
	aead cipher.AEAD
	rand io.Reader
}

// NewSealer builds the cached AEAD for k with crypto/rand nonces.
func NewSealer(k Key) (*Sealer, error) {
	return NewSealerRand(k, nil)
}

// NewSealerRand builds the cached AEAD for k drawing nonces from r (nil
// means crypto/rand).
func NewSealerRand(k Key, r io.Reader) (*Sealer, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	if r == nil {
		r = rand.Reader //lint:allow detrand real deployments key from the OS CSPRNG; deterministic runs inject a seeded reader
	}
	return &Sealer{key: k, aead: aead, rand: r}, nil
}

// Key returns the sealer's key.
func (s *Sealer) Key() Key { return s.key }

// Encrypt seals plaintext with optional additional authenticated data. The
// returned ciphertext embeds the nonce prefix.
func (s *Sealer) Encrypt(plaintext, aad []byte) ([]byte, error) {
	return s.AppendEncrypt(nil, plaintext, aad)
}

// AppendEncrypt seals plaintext and appends the ciphertext (nonce prefix
// included) to dst, returning the extended slice — the allocation-free form
// for callers that reuse a scratch buffer. When dst lacks the room, nonce,
// ciphertext and tag are reserved in one exactly-sized allocation, so a nil
// dst costs one allocation however large the plaintext.
func (s *Sealer) AppendEncrypt(dst, plaintext, aad []byte) ([]byte, error) {
	nonceAt := len(dst)
	nonceEnd := nonceAt + s.aead.NonceSize()
	if total := nonceEnd + len(plaintext) + s.aead.Overhead(); cap(dst) < total {
		dst = append(make([]byte, 0, total), dst...)
	}
	dst = dst[:nonceEnd]
	nonce := dst[nonceAt:]
	if _, err := io.ReadFull(s.rand, nonce); err != nil {
		return nil, fmt.Errorf("seal: generating nonce: %w", err)
	}
	return s.aead.Seal(dst, nonce, plaintext, aad), nil
}

// Decrypt opens a ciphertext produced by Encrypt/AppendEncrypt. It returns
// ErrDecrypt for any authentication failure.
func (s *Sealer) Decrypt(ciphertext, aad []byte) ([]byte, error) {
	if len(ciphertext) < s.aead.NonceSize() {
		return nil, ErrDecrypt
	}
	nonce, box := ciphertext[:s.aead.NonceSize()], ciphertext[s.aead.NonceSize():]
	plaintext, err := s.aead.Open(nil, nonce, box, aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return plaintext, nil
}

// Encrypt seals plaintext under k with optional additional authenticated
// data: a one-shot wrapper that builds the AEAD on the stack, seals once
// and discards the state. Callers sealing repeatedly under one key should
// hold a Sealer.
func Encrypt(k Key, plaintext, aad []byte) ([]byte, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	s := Sealer{key: k, aead: aead, rand: rand.Reader} //lint:allow detrand one-shot convenience path; deterministic callers use NewSealerRand
	return s.AppendEncrypt(nil, plaintext, aad)
}

// Decrypt opens a ciphertext produced by Encrypt. It returns ErrDecrypt for
// any authentication failure.
func Decrypt(k Key, ciphertext, aad []byte) ([]byte, error) {
	aead, err := newAEAD(k)
	if err != nil {
		return nil, err
	}
	s := Sealer{key: k, aead: aead, rand: rand.Reader} //lint:allow detrand Decrypt never draws from the reader; populated for struct symmetry
	return s.Decrypt(ciphertext, aad)
}

// Overhead is the ciphertext expansion of one Encrypt call (nonce + GCM tag).
func Overhead() int {
	return 12 + 16
}

func newAEAD(k Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("seal: creating cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: creating GCM: %w", err)
	}
	return aead, nil
}
