// Package onion builds and peels the layered packages the self-emerging key
// routing schemes transmit (Section III). Each layer is sealed with one
// layer key K_j; peeling reveals the next-hop addresses, any key-share
// payloads to scatter to the next holders, and the remaining (still sealed)
// inner onion. The innermost layer carries the protected secret.
//
// The package is transport- and DHT-agnostic: next hops and shares are
// opaque byte strings supplied by the protocol layer.
package onion

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/freelist"
)

// Layer describes the plaintext of one onion layer.
type Layer struct {
	// NextHops are opaque addresses of the holders the remaining onion (and
	// shares) must be forwarded to. Empty for the innermost layer.
	NextHops [][]byte
	// Shares are opaque key-share payloads revealed at this layer, to be
	// scattered one-per-next-column-holder by the key share routing scheme.
	Shares [][]byte
	// Payload is the protected secret, present only at the innermost layer.
	Payload []byte
	// Rest is the still-sealed inner onion to forward; nil at the innermost
	// layer. Populated by Peel, ignored by Build.
	Rest []byte
}

var (
	// ErrMalformed is returned when a peeled plaintext cannot be decoded.
	ErrMalformed = errors.New("onion: malformed layer")
	// ErrNoLayers is returned by Build when no layers are supplied.
	ErrNoLayers = errors.New("onion: at least one layer required")

	// errDecrypt is the error for an onion the key does not open, made once:
	// share recovery fails here for every wrong candidate.
	errDecrypt = fmt.Errorf("onion: %w", seal.ErrDecrypt)
)

const maxSection = 1 << 24 // sanity cap on any encoded field length

// Build wraps the given layers (outermost first) under the corresponding
// keys (keys[0] seals layers[0]). The innermost layer is layers[len-1].
// Build returns the fully wrapped onion ciphertext. It is a one-shot
// wrapper around BuildSealers; callers wrapping several onions under the
// same keys should construct the sealers once.
func Build(layers []Layer, keys []seal.Key) ([]byte, error) {
	if len(layers) != len(keys) {
		return nil, fmt.Errorf("onion: %d layers but %d keys", len(layers), len(keys))
	}
	sealers := make([]*seal.Sealer, len(keys))
	for i, k := range keys {
		s, err := seal.NewSealer(k)
		if err != nil {
			return nil, err
		}
		sealers[i] = s
	}
	return BuildSealers(layers, sealers)
}

// buildBufs recycles the two scratch buffers one Build needs (the plaintext
// layer encoding and the intermediate sealed onion). It is the module's only
// process-level list: BuildSealers is a pure function with no node, loop or
// sender to hang scratch on, and concurrent builders need one record each,
// which bounds it. buildMu guards it: sweep workers dispatch missions on
// their own networks at the same time, and every one of them builds here.
var (
	buildMu   sync.Mutex
	buildBufs = freelist.List[buildScratch]{Max: 16}
)

type buildScratch struct{ plain, sealed []byte }

// BuildSealers is Build over pre-constructed Sealer handles: the AES key
// schedule for each layer key is paid once per Sealer, not once per onion,
// and nonce randomness comes from the sealers' source. Only the returned
// outermost ciphertext is freshly allocated; all intermediate layers run
// through recycled scratch buffers.
func BuildSealers(layers []Layer, sealers []*seal.Sealer) ([]byte, error) {
	if len(layers) == 0 {
		return nil, ErrNoLayers
	}
	if len(layers) != len(sealers) {
		return nil, fmt.Errorf("onion: %d layers but %d sealers", len(layers), len(sealers))
	}
	buildMu.Lock()
	scratch := buildBufs.Get()
	buildMu.Unlock()
	defer func() {
		buildMu.Lock()
		buildBufs.Put(scratch)
		buildMu.Unlock()
	}()
	var inner []byte
	for i := len(layers) - 1; i >= 0; i-- {
		layer := layers[i]
		layer.Rest = inner
		plain, err := appendLayer(scratch.plain[:0], layer)
		if err != nil {
			return nil, err
		}
		scratch.plain = plain[:0]
		// The innermost iterations seal into the recycled scratch (the layer
		// encoding above has already copied the previous ciphertext out of
		// it); the outermost seals into a fresh slice the caller keeps.
		var dst []byte
		if i > 0 {
			dst = scratch.sealed[:0]
		}
		sealed, err := sealers[i].AppendEncrypt(dst, plain, nil)
		if err != nil {
			return nil, fmt.Errorf("onion: sealing layer %d: %w", i, err)
		}
		if i > 0 {
			scratch.sealed = sealed[:0]
		}
		inner = sealed
	}
	return inner, nil
}

// Peel removes the outermost layer of the onion with key, returning the
// revealed layer. Layer.Rest holds the remaining onion (nil at the
// innermost layer). It is one-shot: the AEAD is built for this call, the
// way seal.Decrypt builds it, and no Sealer is left behind.
func Peel(key seal.Key, wrapped []byte) (Layer, error) {
	plain, err := seal.Decrypt(key, wrapped, nil)
	if err != nil {
		return Layer{}, errDecrypt
	}
	return decodeLayer(plain, nil)
}

// PeelSealer is Peel over a pre-constructed Sealer handle: the AES-GCM key
// schedule is paid once per Sealer, not once per peel attempt. This is the
// peel-side twin of BuildSealers, for a caller that opens many onions under
// one key.
func PeelSealer(s *seal.Sealer, wrapped []byte) (Layer, error) {
	plain, err := s.Decrypt(wrapped, nil)
	if err != nil {
		return Layer{}, errDecrypt
	}
	return decodeLayer(plain, nil)
}

// Open is Peel for a caller that keeps the layer until later and views it
// then (View): it opens the outermost layer one-shot, checks the
// plaintext's layout, and returns the plaintext — the one allocation it
// keeps. Nothing is sized from the layer's counts.
func Open(key seal.Key, wrapped []byte) ([]byte, error) {
	plain, err := seal.Decrypt(key, wrapped, nil)
	if err != nil {
		return nil, errDecrypt
	}
	if _, err := scanLayer(plain); err != nil {
		return nil, err
	}
	return plain, nil
}

// View decodes a plaintext Open returned. The layer's hops and shares are
// views into items' array when it has room for them all, and into a fresh
// array otherwise, so a caller that views on its stack allocates nothing.
func View(plain []byte, items [][]byte) (Layer, error) {
	return decodeLayer(plain, items)
}

// appendLayer appends the wire form of one layer plaintext to buf.
func appendLayer(buf []byte, l Layer) ([]byte, error) {
	var err error
	appendItem := func(item []byte) {
		if len(item) > maxSection {
			err = fmt.Errorf("onion: section of %d bytes exceeds limit", len(item))
			return
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(item)))
		buf = append(buf, item...)
	}
	appendList := func(list [][]byte) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(list)))
		for _, item := range list {
			appendItem(item)
			if err != nil {
				return
			}
		}
	}
	appendList(l.NextHops)
	if err != nil {
		return nil, err
	}
	appendList(l.Shares)
	if err != nil {
		return nil, err
	}
	// The payload/rest tail is a two-item list, appended without
	// materializing a [][]byte.
	buf = binary.BigEndian.AppendUint32(buf, 2)
	appendItem(l.Payload)
	if err != nil {
		return nil, err
	}
	appendItem(l.Rest)
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// layout is what the first pass over a layer plaintext finds: how many hop
// and share items it lists, and its payload and rest.
type layout struct {
	hops, shares  int
	payload, rest []byte
}

// scanLayer is decodeLayer's first pass: it checks the layout and counts the
// hop and share items. skipList bounds each count by the bytes left, so a
// count is checked before anything is sized by it. The payload/rest tail is
// a two-item list, read without materializing a [][]byte.
func scanLayer(plain []byte) (layout, error) {
	r := reader{buf: plain}
	var (
		l   layout
		err error
	)
	if l.hops, err = r.skipList(); err != nil {
		return layout{}, err
	}
	if l.shares, err = r.skipList(); err != nil {
		return layout{}, err
	}
	if count, err := r.uint32(); err != nil || count != 2 {
		return layout{}, ErrMalformed
	}
	if l.payload, err = r.item(); err != nil {
		return layout{}, err
	}
	if l.rest, err = r.item(); err != nil {
		return layout{}, err
	}
	if r.remaining() != 0 {
		return layout{}, ErrMalformed
	}
	return l, nil
}

// decodeLayer is the one layer decoder: scanLayer checks the plaintext, and a
// second pass views its hop and share items in items' array when it has
// room for them all (a fresh array otherwise).
func decodeLayer(plain []byte, items [][]byte) (Layer, error) {
	lay, err := scanLayer(plain)
	if err != nil {
		return Layer{}, err
	}
	n := lay.hops + lay.shares
	if cap(items) < n {
		items = make([][]byte, n)
	}
	items = items[:n]
	r := reader{buf: plain}
	r.readList(items[:lay.hops])
	r.readList(items[lay.hops:])
	l := Layer{NextHops: items[:lay.hops:lay.hops], Shares: items[lay.hops:]}
	if len(lay.payload) > 0 {
		l.Payload = lay.payload
	}
	if len(lay.rest) > 0 {
		l.Rest = lay.rest
	}
	return l, nil
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) remaining() int { return len(r.buf) - r.off }

func (r *reader) uint32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrMalformed
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || n > maxSection || r.remaining() < n {
		return nil, ErrMalformed
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out, nil
}

// item reads one length-prefixed item.
func (r *reader) item() ([]byte, error) {
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	return r.bytes(int(n))
}

// skipList checks one list and returns its item count.
func (r *reader) skipList() (int, error) {
	count, err := r.uint32()
	if err != nil {
		return 0, err
	}
	// Every item carries at least its 4-byte length, so a count the rest of
	// the buffer cannot hold is malformed without reading further.
	if int(count) > r.remaining()/4 {
		return 0, ErrMalformed
	}
	for range count {
		if _, err := r.item(); err != nil {
			return 0, err
		}
	}
	return int(count), nil
}

// readList views the items of a list skipList accepted into dst.
func (r *reader) readList(dst [][]byte) {
	r.off += 4
	for i := range dst {
		dst[i], _ = r.item()
	}
}
