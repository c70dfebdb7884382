package udp

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"selfemerge/internal/transport"
)

// listen opens a loopback endpoint on a loop of its own, both torn down with
// the test.
func listen(t *testing.T) *Endpoint {
	t.Helper()
	l := NewLoop()
	t.Cleanup(l.Stop)
	e, err := l.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func TestRoundTrip(t *testing.T) {
	a := listen(t)
	b := listen(t)

	type recv struct {
		from    transport.Addr
		payload []byte
	}
	got := make(chan recv, 1)
	b.SetHandler(func(from transport.Addr, payload []byte) {
		got <- recv{from, payload}
	})

	msg := []byte("over real sockets")
	if err := a.Send(b.Addr(), msg); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-got:
		if !bytes.Equal(r.payload, msg) {
			t.Errorf("payload = %q", r.payload)
		}
		if r.from != a.Addr() {
			t.Errorf("from = %q, want %q", r.from, a.Addr())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("datagram not delivered")
	}
}

func TestBidirectional(t *testing.T) {
	a := listen(t)
	b := listen(t)

	var wg sync.WaitGroup
	wg.Add(2)
	a.SetHandler(func(from transport.Addr, payload []byte) { wg.Done() })
	b.SetHandler(func(from transport.Addr, payload []byte) {
		_ = b.Send(from, []byte("pong"))
		wg.Done()
	})
	if err := a.Send(b.Addr(), []byte("ping")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ping/pong incomplete")
	}
}

func TestCloseStopsEndpoint(t *testing.T) {
	e := listen(t)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Send("127.0.0.1:9", []byte("x")); err != transport.ErrClosed {
		t.Errorf("send after close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestOversizedRejected(t *testing.T) {
	e := listen(t)
	if err := e.Send("127.0.0.1:9", make([]byte, transport.MaxDatagram+1)); err == nil {
		t.Error("oversized payload accepted")
	}
}

func TestBadAddress(t *testing.T) {
	e := listen(t)
	if err := e.Send("not an address", []byte("x")); err == nil {
		t.Error("bad address accepted")
	}
}
