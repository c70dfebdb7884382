package cloud

import (
	"bytes"
	"testing"

	"selfemerge/internal/crypto/seal"
)

func TestPutGetPublic(t *testing.T) {
	s := NewStore()
	s.Put("exam", []byte("ciphertext"))
	got, err := s.Get("exam", "anyone")
	if err != nil || !bytes.Equal(got, []byte("ciphertext")) {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestACL(t *testing.T) {
	s := NewStore()
	s.Put("ballots", []byte("x"), "bob", "carol")
	if _, err := s.Get("ballots", "bob"); err != nil {
		t.Errorf("authorized reader denied: %v", err)
	}
	if _, err := s.Get("ballots", "mallory"); err != ErrForbidden {
		t.Errorf("unauthorized read: %v", err)
	}
}

func TestNotFound(t *testing.T) {
	s := NewStore()
	if _, err := s.Get("missing", "x"); err != ErrNotFound {
		t.Errorf("err = %v", err)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("v1"))
	s.Put("k", []byte("v2"))
	got, err := s.Get("k", "")
	if err != nil || string(got) != "v2" {
		t.Fatalf("overwrite: %q %v", got, err)
	}
	s.Delete("k")
	if _, err := s.Get("k", ""); err != ErrNotFound {
		t.Errorf("after delete: %v", err)
	}
	s.Delete("k") // idempotent
	if s.Len() != 0 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := NewStore()
	s.Put("k", []byte("orig"))
	got, _ := s.Get("k", "")
	got[0] = 'X'
	again, _ := s.Get("k", "")
	if string(again) != "orig" {
		t.Error("Get returned aliased memory")
	}
}

func TestPutCopiesInput(t *testing.T) {
	s := NewStore()
	buf := []byte("orig")
	s.Put("k", buf)
	buf[0] = 'X'
	got, _ := s.Get("k", "")
	if string(got) != "orig" {
		t.Error("Put aliased caller memory")
	}
}

func TestAdoptKeepsCallerSlice(t *testing.T) {
	s := NewStore()
	blob := []byte("sealed payload")
	s.Adopt("k", blob)
	view, err := s.View("k", "anyone")
	if err != nil {
		t.Fatal(err)
	}
	if &view[0] != &blob[0] || len(view) != len(blob) {
		t.Error("View is not the adopted slice: the store copied on the way in or out")
	}
	// Get on an adopted blob is still private.
	got, _ := s.Get("k", "anyone")
	if &got[0] == &blob[0] {
		t.Error("Get returned the stored blob itself")
	}
}

func TestViewOutlivesOverwriteAndDelete(t *testing.T) {
	s := NewStore()
	s.Adopt("k", []byte("v1"))
	beforeOverwrite, _ := s.View("k", "")
	s.Adopt("k", []byte("v2"))
	s.Put("k", []byte("v3"))
	beforeDelete, _ := s.View("k", "")
	s.Delete("k")
	if string(beforeOverwrite) != "v1" {
		t.Errorf("view taken before an overwrite reads %q, want v1", beforeOverwrite)
	}
	if string(beforeDelete) != "v3" {
		t.Errorf("view taken before Delete reads %q, want v3", beforeDelete)
	}
	if _, err := s.View("k", ""); err != ErrNotFound {
		t.Errorf("View after delete: %v", err)
	}
}

func TestViewACL(t *testing.T) {
	s := NewStore()
	s.Adopt("ballots", []byte("x"), "bob")
	if _, err := s.View("ballots", "bob"); err != nil {
		t.Errorf("authorized view denied: %v", err)
	}
	if view, err := s.View("ballots", "mallory"); err != ErrForbidden || view != nil {
		t.Errorf("unauthorized view: %q, %v", view, err)
	}
	if _, err := s.View("missing", "bob"); err != ErrNotFound {
		t.Errorf("missing view: %v", err)
	}
}

// TestViewsUnderConcurrentOverwrite is the -race check of the ownership
// rule: one goroutine re-points and deletes a name while another decrypts
// whatever view it gets. Every view must open to the plaintext of exactly
// one generation — a blob written after adoption would fail authentication
// (or trip the race detector) here.
func TestViewsUnderConcurrentOverwrite(t *testing.T) {
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	sealer, err := seal.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	const generations = 200
	plain := func(g int) []byte { return bytes.Repeat([]byte{byte(g)}, 4096) }
	s := NewStore()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for g := 0; g < generations; g++ {
			box, err := sealer.Encrypt(plain(g), nil)
			if err != nil {
				t.Error(err)
				return
			}
			s.Adopt("k", box)
			if g%3 == 2 {
				s.Delete("k")
			}
		}
	}()
	defer func() { <-writerDone }() // a failing reader still waits for the writer
	opened := 0
	for running := true; running; {
		select {
		case <-writerDone:
			running = false
		default:
		}
		view, err := s.View("k", "receiver")
		if err == ErrNotFound {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := seal.Decrypt(key, view, nil)
		if err != nil {
			t.Fatalf("view failed to open: %v", err)
		}
		if !bytes.Equal(got, plain(int(got[0]))) {
			t.Fatal("view opened to a mix of generations")
		}
		opened++
	}
	t.Logf("opened %d views across %d generations", opened, generations)
}
