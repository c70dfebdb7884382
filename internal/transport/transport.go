// Package transport defines the message transport abstraction the DHT runs
// over. Two implementations exist: simnet (an in-memory network with
// configurable latency, loss and node up/down state, driven by the
// discrete-event simulator) and udp (a real net.UDPConn transport for
// running nodes as separate processes).
package transport

import "errors"

// Addr identifies an endpoint. For simnet it is an opaque node name; for
// UDP it is a "host:port" string.
type Addr string

// Receiver consumes inbound datagrams. The payload is only valid for the
// duration of the call: transports recycle delivery buffers, so a receiver
// that needs the bytes afterwards must copy them. Receive runs on the event
// loop that owns its endpoint — the simulator run that delivers a simnet
// datagram, the udp.Loop a socket's reader posts to — one call at a time,
// interleaved with that loop's timers and nothing else, so what it touches
// needs no lock.
type Receiver interface {
	Receive(from Addr, payload []byte)
}

// Handler is a function Receiver.
type Handler func(from Addr, payload []byte)

// Receive calls h.
func (h Handler) Receive(from Addr, payload []byte) { h(from, payload) }

// ReceiverSetter is the allocation-free SetHandler of simnet and udp
// endpoints: a pointer bound as a Receiver needs no method-value closure. A
// wrapper that embeds an Endpoint lacks it, so its own SetHandler still runs.
type ReceiverSetter interface{ SetReceiver(r Receiver) }

// ErrClosed is returned when sending through a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// MaxDatagram is the largest payload an endpoint must accept. It matches a
// conservative UDP datagram budget; the DHT keeps its messages below this.
const MaxDatagram = 60 * 1024

// Endpoint is one attachment point to a network.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits payload to the given address, best effort: delivery
	// failures (loss, dead peer) are silent, exactly like UDP. An error is
	// returned only for local conditions (endpoint closed, oversized
	// payload). Send does not retain payload after it returns, so callers
	// may reuse the buffer immediately.
	Send(to Addr, payload []byte) error
	// SetHandler installs the inbound handler. Must be called before any
	// traffic arrives; not safe to call concurrently with traffic.
	SetHandler(h Handler)
	// Close detaches the endpoint. Further Sends fail with ErrClosed.
	Close() error
}
