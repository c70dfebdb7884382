// Command dhtnode runs a real Kademlia DHT node over UDP — the same node
// implementation the simulations use, on the same event loop, driven by the
// wall clock and a socket instead of virtual time and simnet. Start a few in
// separate terminals to form a local cluster, then store and fetch values
// through any member.
//
// Usage:
//
//	dhtnode -listen 127.0.0.1:4001                        # first node
//	dhtnode -listen 127.0.0.1:4002 -join 127.0.0.1:4001   # join via seed
//	dhtnode -listen 127.0.0.1:4003 -join 127.0.0.1:4001 \
//	        -store exam=ciphertext                        # store a value
//	dhtnode -listen 127.0.0.1:4004 -join 127.0.0.1:4001 \
//	        -get exam -oneshot                            # fetch and exit
package main

import (
	"bytes"
	"crypto/rand"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"selfemerge/internal/dht"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/udp"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:0", "UDP address to listen on")
		join    = flag.String("join", "", "comma-separated seed addresses to bootstrap from")
		store   = flag.String("store", "", "key=value to store after joining")
		get     = flag.String("get", "", "key to look up after joining")
		oneshot = flag.Bool("oneshot", false, "exit after performing -store/-get")
	)
	flag.Parse()

	p, err := start(*listen, func(from dht.Contact, payload []byte) {
		fmt.Printf("app message from %s: %q\n", from.ID.Short(), payload)
	})
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

	if *store != "" {
		kv := strings.SplitN(*store, "=", 2)
		if len(kv) != 2 {
			fatal(fmt.Errorf("-store wants key=value, got %q", *store))
		}
		if acked, ok := p.store(kv[0], []byte(kv[1])); ok {
			fmt.Printf("stored %q at %d replicas\n", kv[0], acked)
		} else {
			fmt.Println("store timed out")
		}
	}

	if *get != "" {
		switch value, ok := p.get(*get); {
		case !ok:
			fmt.Println("get timed out")
		case value != nil:
			fmt.Printf("%s = %q\n", *get, value)
		default:
			fmt.Printf("%s not found\n", *get)
		}
	}

	if *oneshot {
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
}

// peer is a running node and the loop that owns it. The node is touched from
// the loop only: the socket's datagrams are posted there by the endpoint, and
// main's calls below are posted by await.
type peer struct {
	loop *udp.Loop
	node *dht.Node
}

// start opens the socket and boots a node with a fresh random identifier on
// a loop of its own.
func start(listen string, onApp func(dht.Contact, []byte)) (*peer, error) {
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
	node, err := dht.NewNode(dht.Config{ID: id, Endpoint: ep, Clock: loop.Clock(), OnApp: onApp})
	if err != nil {
		ep.Close()
		loop.Stop()
		return nil, err
	}
	return &peer{loop: loop, node: node}, nil
}

// stop closes the node on its loop, then ends the loop.
func (p *peer) stop() {
	await(p.loop, func(report func(error)) { report(p.node.Close()) })
	p.loop.Stop()
}

// opTimeout bounds how long main waits for one node operation.
const opTimeout = 5 * time.Second

// await runs op on the loop and waits for the one value it reports; ok is
// false if nothing was reported within opTimeout.
func await[T any](loop *udp.Loop, op func(report func(T))) (v T, ok bool) {
	got := make(chan T, 1) // one report, never blocking the loop on a caller that gave up
	loop.Post(func() { op(func(v T) { got <- v }) })
	select {
	case v = <-got:
		return v, true
	case <-time.After(opTimeout):
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
	contacts, ok = await(p.loop, func(report func(int)) { p.node.Bootstrap(seeds, report) })
	return contacts, ok, nil
}

// store replicates value under key for an hour and returns how many replicas
// acknowledged it.
func (p *peer) store(key string, value []byte) (acked int, ok bool) {
	return await(p.loop, func(report func(int)) {
		p.node.Store(dht.IDFromKey([]byte(key)), value, time.Hour, report)
	})
}

// get fetches the value stored under key; nil means no replica holds one.
func (p *peer) get(key string) (value []byte, ok bool) {
	return await(p.loop, func(report func([]byte)) {
		p.node.Get(dht.IDFromKey([]byte(key)), func(v []byte, _ bool) {
			report(bytes.Clone(v)) // v dies with the callback
		})
	})
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dhtnode: %v\n", err)
	os.Exit(1)
}
