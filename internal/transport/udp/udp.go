// Package udp is the real-socket deployment (cmd/dhtnode, a DHT node with
// the timed-release protocol host on it): the transport interface over UDP
// sockets — framing is native, one datagram per message — and the Loop that
// runs a node's simulator on wall time. It is where goroutines and the wall
// clock enter; everything above it, the node and its host, runs on the loop.
package udp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"selfemerge/internal/transport"
)

// Endpoint is a UDP-backed transport endpoint bound to a Loop: its reader
// goroutine posts every inbound datagram to the loop, so the handler runs
// there like any other event.
type Endpoint struct {
	conn *net.UDPConn
	loop *Loop
	addr transport.Addr // the bound address, formatted once by Listen

	// mu: whoever builds the node installs the receiver (the loop, or its
	// creator before traffic); the reader goroutine picks it up.
	mu   sync.RWMutex
	recv transport.Receiver
	wg   sync.WaitGroup // the reader

	// queued counts the datagrams posted to the loop whose handler call has
	// not started yet: the reader adds, the loop subtracts. dropped counts
	// the datagrams the reader discarded because maxQueued were waiting.
	queued  atomic.Int32
	dropped atomic.Uint64
}

// maxQueued bounds the datagrams waiting in the loop's inbox. A sender
// faster than the node's handlers would otherwise grow the heap without
// limit, up to 64 KiB a datagram; past the bound the reader drops, as a full
// socket buffer would. Replies to a node's own lookups arrive a few (alpha)
// per lookup, so the bound is for floods.
const maxQueued = 1024

var _ transport.Endpoint = (*Endpoint)(nil)

// Listen opens a UDP endpoint on the given address ("127.0.0.1:0" picks a
// free port) whose datagrams are handled on l. The reader starts
// immediately; install a handler before peers learn the address.
func (l *Loop) Listen(addr string) (*Endpoint, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udp: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("udp: listening on %q: %w", addr, err)
	}
	// The bind has fixed the port: the address is formatted here, once, not
	// for every datagram a node stamps with it.
	e := &Endpoint{conn: conn, loop: l, addr: transport.Addr(conn.LocalAddr().String())}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

// Addr returns the bound address (with the concrete port).
func (e *Endpoint) Addr() transport.Addr {
	return e.addr
}

// SetHandler installs the inbound handler.
func (e *Endpoint) SetHandler(h transport.Handler) { e.SetReceiver(h) }

// SetReceiver installs the inbound receiver (transport.ReceiverSetter).
func (e *Endpoint) SetReceiver(r transport.Receiver) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.recv = r
}

// Send transmits one datagram to the given "ip:port" address. A host name is
// an error, never a lookup: Send runs on the node's loop, and an address in a
// peer's FIND_NODE response must not stall every timer and handler of the
// node for a resolver timeout. Honest peers list socket source addresses,
// and operators' seed names are resolved before they reach the loop.
func (e *Endpoint) Send(to transport.Addr, payload []byte) error {
	if len(payload) > transport.MaxDatagram {
		return fmt.Errorf("udp: payload %d exceeds %d bytes", len(payload), transport.MaxDatagram)
	}
	dst, err := netip.ParseAddrPort(string(to))
	if err != nil {
		return fmt.Errorf("udp: sending to %q: not an ip:port address: %w", to, err)
	}
	if _, err := e.conn.WriteToUDPAddrPort(payload, dst); err != nil {
		if errors.Is(err, net.ErrClosed) {
			return transport.ErrClosed
		}
		return fmt.Errorf("udp: sending to %q: %w", to, err)
	}
	return nil
}

// Close shuts down the socket and waits for the reader to exit. Datagrams it
// had already posted still reach the handler.
func (e *Endpoint) Close() error {
	err := e.conn.Close()
	e.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		return nil // closed before
	}
	return err
}

func (e *Endpoint) readLoop() {
	defer e.wg.Done()
	buf := make([]byte, transport.MaxDatagram+1)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient read error; UDP is lossy anyway
		}
		if n > transport.MaxDatagram {
			continue // oversized datagram: drop
		}
		e.mu.RLock()
		r := e.recv
		e.mu.RUnlock()
		if r == nil {
			continue
		}
		if e.queued.Load() >= maxQueued {
			e.dropped.Add(1)
			continue
		}
		// The read buffer is reused for the next datagram while this one waits
		// in the loop's inbox, so it travels as a copy.
		src, data := transport.Addr(from.String()), append([]byte(nil), buf[:n]...)
		e.queued.Add(1)
		e.loop.Post(func() {
			e.queued.Add(-1)
			r.Receive(src, data)
		})
	}
}
