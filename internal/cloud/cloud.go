// Package cloud models the always-available cloud store of the system
// (Figure 1): the sender uploads the encrypted message at start time, and
// authenticated receivers may download it at any time. The cloud never
// holds key material — confidentiality rests entirely on the DHT-routed
// key.
//
// A stored blob is immutable and has one owner at a time: Adopt hands the
// caller's slice to the store, which keeps it without copying, and View
// lends the stored slice itself to an authorized reader. Nobody writes a
// blob after adoption; overwriting or deleting a name only drops the
// store's reference, so a view taken earlier keeps reading the bytes it was
// given. Put and Get are the same path with a copy at the edge ("adopt a
// copy", "copy of the view") for callers that keep writing their buffer or
// want a private one. DESIGN.md, "Payload ownership", has the contract.
package cloud

import (
	"errors"
	"sync"
)

// ErrNotFound is returned for unknown object names.
var ErrNotFound = errors.New("cloud: object not found")

// ErrForbidden is returned when the requester is not an authorized reader.
var ErrForbidden = errors.New("cloud: access denied")

// Store is an in-memory cloud blob store with per-object ACLs. It is safe
// for concurrent use: it stands for a service outside the DHT, and senders
// and receivers reach it from whatever goroutine they run on, not through a
// network's event loops.
type Store struct {
	mu      sync.RWMutex
	objects map[string]object
}

type object struct {
	data    []byte
	readers map[string]bool // empty means public
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{objects: make(map[string]object)}
}

// Adopt uploads data under name, readable by the listed principals
// (everyone when none are given), and keeps the slice itself: the caller
// gives up ownership and must not write it again. Existing objects are
// overwritten — the name moves to the new blob, the old one is untouched.
func (s *Store) Adopt(name string, data []byte, readers ...string) {
	obj := object{data: data}
	if len(readers) > 0 {
		obj.readers = make(map[string]bool, len(readers))
		for _, r := range readers {
			obj.readers[r] = true
		}
	}
	s.mu.Lock()
	s.objects[name] = obj
	s.mu.Unlock()
}

// Put is Adopt of a private copy: the caller keeps data and may reuse it.
func (s *Store) Put(name string, data []byte, readers ...string) {
	s.Adopt(name, append([]byte(nil), data...), readers...)
}

// View downloads an object as principal without copying it: the result is
// the stored blob, read-only for every holder. It stays valid and unchanged
// after the name is overwritten or deleted.
func (s *Store) View(name, principal string) ([]byte, error) {
	s.mu.RLock()
	obj, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	if obj.readers != nil && !obj.readers[principal] {
		return nil, ErrForbidden
	}
	return obj.data, nil
}

// Get is a private copy of View, the caller's to modify.
func (s *Store) Get(name, principal string) ([]byte, error) {
	view, err := s.View(name, principal)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(view))
	copy(out, view)
	return out, nil
}

// Delete removes an object; deleting a missing object is a no-op. Views of
// it already handed out stay readable.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	delete(s.objects, name)
	s.mu.Unlock()
}

// Len reports the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}
