// Command dhtnode runs a real Kademlia DHT node over UDP with the
// timed-release protocol host on it — the same node and host the simulations
// use, on the same event loop, driven by the wall clock and a socket instead
// of virtual time and simnet. Every process is a holder. Start a few in
// separate terminals to form a local cluster, then -send a message from any
// member: it travels the cluster as onion layers and key grants, stays hidden
// until its release a few seconds later, and emerges at the sender's own
// identifier.
//
// Usage:
//
//	dhtnode -listen 127.0.0.1:4001                        # first node
//	dhtnode -listen 127.0.0.1:4002 -join 127.0.0.1:4001   # join via seed
//	dhtnode -listen 127.0.0.1:4003 -join 127.0.0.1:4001 \
//	        -send hello -oneshot                          # send, await it, exit
package main

import (
	"bytes"
	"crypto/rand"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/udp"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "UDP address to listen on")
		join    = flag.String("join", "", "comma-separated seed addresses to bootstrap from")
		send    = flag.String("send", "", "text to send as one timed-release mission to this node, after joining")
		oneshot = flag.Bool("oneshot", false, "exit after performing -send")
	)
	flag.Parse()

	p, err := start(*listen, nil)
	if err != nil {
		fatal(err)
	}
	defer p.stop()
	fmt.Printf("node %s listening on %s\n", p.node.ID().Short(), p.node.Contact().Addr)

	if *join != "" {
		n, ok, err := p.join(strings.Split(*join, ","))
		switch {
		case err != nil:
			fatal(err)
		case ok:
			fmt.Printf("joined: %d contacts\n", n)
		default:
			fmt.Println("join timed out (no seeds reachable)")
		}
	}

	if *send != "" {
		switch e, ok := p.send(*send); {
		case !ok:
			fmt.Println("not delivered")
		case e.err != nil:
			fatal(e.err)
		default:
			fmt.Printf("emerged %q %v after release\n", e.secret, e.late)
		}
	}

	if *oneshot {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// peer is a running node, its protocol host and the loop that owns both. They
// are touched from the loop only: the socket's datagrams are posted there by
// the endpoint, and main's calls below are posted by await.
type peer struct {
	loop *udp.Loop
	node *dht.Node
	// onSecret, when set, sees every secret the host delivers to this node.
	onSecret func(protocol.MissionID, []byte)
}

// retryAttempts is the sends a node makes per request: the simulations'
// retry-hardened arm, since a real network loses datagrams. Requests re-send
// through loss (first at the node's measured retransmission timeout), app
// payloads travel acknowledged and deduplicated, and the host pushes each
// repair twice.
const retryAttempts = 3

// start opens the socket and boots a node with a fresh random identifier and
// a protocol host on a loop of its own. wrap, when set, is what the node
// sends through instead of the bare socket (a test's fault injector).
func start(listen string, wrap func(*udp.Endpoint, *udp.Loop) transport.Endpoint) (*peer, error) {
	var id dht.ID
	if _, err := rand.Read(id[:]); err != nil {
		return nil, err
	}
	loop := udp.NewLoop()
	ep, err := loop.Listen(listen)
	if err != nil {
		loop.Stop()
		return nil, err
	}
	var nodeEP transport.Endpoint = ep
	if wrap != nil {
		nodeEP = wrap(ep, loop)
	}
	p := &peer{loop: loop}
	// Built on the loop: the socket is live, and a datagram may reach the
	// node the moment it exists.
	err, ok := await(loop, opTimeout, func(report func(error)) {
		host, err := protocol.NewHost(protocol.HostConfig{
			OnSecret: func(m protocol.MissionID, secret []byte) {
				if p.onSecret != nil {
					p.onSecret(m, secret)
				}
			},
		}, dht.Config{ID: id, Endpoint: nodeEP, Clock: loop.Clock(), Retry: retryAttempts})
		if err == nil {
			p.node = host.Node()
		}
		report(err)
	})
	if !ok || err != nil {
		ep.Close()
		loop.Stop()
		if err == nil {
			err = errors.New("node start timed out")
		}
		return nil, err
	}
	return p, nil
}

// stop closes the node on its loop, then ends the loop.
func (p *peer) stop() {
	await(p.loop, opTimeout, func(report func(error)) { report(p.node.Close()) })
	p.loop.Stop()
}

// opTimeout bounds how long main waits for one node operation.
const opTimeout = 5 * time.Second

// await runs op on the loop and waits up to timeout for the one value it
// reports; ok is false if nothing was reported in time.
func await[T any](loop *udp.Loop, timeout time.Duration, op func(report func(T))) (v T, ok bool) {
	got := make(chan T, 1) // one report, never blocking the loop on a caller that gave up
	loop.Post(func() { op(func(v T) { got <- v }) })
	select {
	case v = <-got:
		return v, true
	case <-time.After(timeout):
		return v, false
	}
}

// join bootstraps from seeds given as "host:port". An address is all an
// operator knows of a seed, so the contacts carry no ID: the node pings each
// address, takes the first reply from it as the seed's identity, and looks
// itself up from there (dht.Node.Bootstrap). Replies are matched on the
// datagram's source, hence the resolved form of each address. It returns the
// number of contacts known afterwards.
func (p *peer) join(addrs []string) (contacts int, ok bool, err error) {
	seeds := make([]dht.Contact, len(addrs))
	for i, a := range addrs {
		udpAddr, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return 0, false, fmt.Errorf("seed %q: %w", a, err)
		}
		seeds[i] = dht.Contact{Addr: transport.Addr(udpAddr.String())}
	}
	contacts, ok = await(p.loop, opTimeout, func(report func(int)) { p.node.Bootstrap(seeds, report) })
	return contacts, ok, nil
}

// emergingPeriod is how long after -send its mission is released.
const emergingPeriod = 3 * time.Second

// emergence is what send waits for: the secret as it emerged and how long
// after the release instant, or why the mission was never sent.
type emergence struct {
	secret []byte
	late   time.Duration
	err    error
}

// send dispatches text as one timed-release mission whose receiver is this
// node — the joint scheme, two holders in each of two columns — and waits for
// the first copy of the secret to emerge here. ok is false if none did within
// opTimeout of the release.
func (p *peer) send(text string) (e emergence, ok bool) {
	return await(p.loop, emergingPeriod+opTimeout, func(report func(emergence)) {
		now := p.loop.Clock().Now()
		m := protocol.Mission{Secret: []byte(text), Receiver: p.node.ID(), Start: now, Release: now.Add(emergingPeriod)}
		var err error
		if m.Plan, err = (core.PlanSpec{Scheme: core.SchemeJoint, K: 2, L: 2}).Plan(); err == nil {
			m.ID, err = protocol.NewMissionID()
		}
		if err == nil {
			p.onSecret = func(id protocol.MissionID, secret []byte) {
				if id == m.ID {
					p.onSecret = nil // every column-l holder delivers a copy; the first reports
					report(emergence{secret: bytes.Clone(secret), late: p.loop.Clock().Now().Sub(m.Release)})
				}
			}
			_, err = protocol.Dispatch(p.node, m)
		}
		if err != nil {
			p.onSecret = nil
			report(emergence{err: err})
		}
	})
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dhtnode: %v\n", err)
	os.Exit(1)
}
