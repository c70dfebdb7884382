package udp

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
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

// TestAddrFormattedOnce: Addr is the bound address with its concrete port,
// and reading it — once per datagram a node sends — allocates nothing.
func TestAddrFormattedOnce(t *testing.T) {
	e := listen(t)
	if want := transport.Addr(e.conn.LocalAddr().String()); e.Addr() != want {
		t.Fatalf("Addr = %q, want %q", e.Addr(), want)
	}
	var sink transport.Addr
	if allocs := testing.AllocsPerRun(100, func() { sink = e.Addr() }); allocs != 0 {
		t.Errorf("Addr allocates %v times per call, want 0", allocs)
	}
	_ = sink
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

// TestSendNeverResolves: a host name is refused before any network I/O, so a
// name a peer listed cannot block the node's loop on DNS. (example.invalid
// is reserved never to resolve: a lookup of it would wait on the resolver.)
func TestSendNeverResolves(t *testing.T) {
	e := listen(t)
	for _, to := range []transport.Addr{"localhost:9", "example.invalid:1"} {
		start := time.Now()
		if err := e.Send(to, []byte("x")); err == nil {
			t.Errorf("Send to %q succeeded", to)
		}
		if took := time.Since(start); took > 50*time.Millisecond {
			t.Errorf("Send to %q took %v", to, took)
		}
	}
}

// TestInboxBounded: while the loop is busy, the reader posts at most
// maxQueued datagrams and drops the rest; the loop then serves what was
// queued and goes on serving.
func TestInboxBounded(t *testing.T) {
	e := listen(t)
	var handled atomic.Int64
	e.SetHandler(func(transport.Addr, []byte) { handled.Add(1) })
	entered, release := make(chan struct{}), make(chan struct{})
	e.loop.Post(func() {
		close(entered)
		<-release
	})
	<-entered
	defer func() { // on a failure too, or stopping the loop would hang
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	sender, err := net.Dial("udp", string(e.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	// read counts what the reader has taken off the socket while the loop is
	// blocked. Sending in batches the reader has drained keeps the socket
	// buffer from dropping any itself.
	read := func() int64 { return int64(e.queued.Load()) + int64(e.dropped.Load()) }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	const sent, batch = maxQueued + 512, 64
	for i := 0; i < sent; i += batch {
		for j := 0; j < batch; j++ {
			if _, err := sender.Write([]byte{byte(j)}); err != nil {
				t.Fatal(err)
			}
		}
		waitFor("the reader to drain a batch", func() bool { return read() == int64(i+batch) })
	}
	if q, d := e.queued.Load(), e.dropped.Load(); q != maxQueued || d != sent-maxQueued {
		t.Fatalf("a blocked loop has %d datagrams queued and %d dropped, want %d and %d", q, d, maxQueued, sent-maxQueued)
	}
	close(release)
	waitFor("the queued datagrams to be handled", func() bool { return e.queued.Load() == 0 })
	if n := handled.Load(); n <= 0 || n > maxQueued {
		t.Fatalf("handler ran %d times for %d datagrams sent to a blocked loop, want 1..%d", n, sent, maxQueued)
	}
	// The loop keeps serving.
	before := handled.Load()
	if _, err := sender.Write([]byte("after")); err != nil {
		t.Fatal(err)
	}
	waitFor("a datagram sent after the flood", func() bool { return handled.Load() > before })
}
