// Package cloud models the always-available cloud store of the system
// (Figure 1): the sender uploads the encrypted message at start time, and
// authenticated receivers may download it at any time. The cloud never
// holds key material — confidentiality rests entirely on the DHT-routed
// key.
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

// Put uploads data under name, readable by the listed principals (everyone
// when none are given). Existing objects are overwritten.
func (s *Store) Put(name string, data []byte, readers ...string) {
	obj := object{data: append([]byte(nil), data...)}
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

// Get downloads an object as principal.
func (s *Store) Get(name, principal string) ([]byte, error) {
	s.mu.RLock()
	obj, ok := s.objects[name]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	if obj.readers != nil && !obj.readers[principal] {
		return nil, ErrForbidden
	}
	out := make([]byte, len(obj.data))
	copy(out, obj.data)
	return out, nil
}

// Delete removes an object; deleting a missing object is a no-op.
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
