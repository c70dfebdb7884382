package dht

import (
	"bytes"
	"fmt"
	"testing"

	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// captureEndpoint keeps a copy of the last datagram its node sent.
type captureEndpoint struct {
	sinkEndpoint
	last []byte
}

func (e *captureEndpoint) Addr() transport.Addr { return "responder" }

func (e *captureEndpoint) Send(_ transport.Addr, payload []byte) error {
	e.last = append(e.last[:0], payload...)
	return nil
}

// TestFindNodeReplyWire holds the replies written from the routing table to
// the Message they replace: for a FIND_NODE, the datagram handle sends has
// the byte length of the response Message listing AppendClosest(target, K),
// the same header, and the same contacts — in the response order
// Message.Contacts documents.
func TestFindNodeReplyWire(t *testing.T) {
	for _, size := range []int{0, 1, 19, 20, 21, 200, 2000} {
		rng := stats.NewRNG(uint64(size) + 1)
		ep := &captureEndpoint{}
		node, err := NewNode(Config{ID: RandomID(rng), Endpoint: ep, Clock: sim.NewSimulator(), Table: TableNaive})
		if err != nil {
			t.Fatal(err)
		}
		self := node.ID()
		// Addresses of varied length, so a wrong member moves the byte length.
		var tracked []ID
		for i := 0; i < size; i++ {
			c := Contact{ID: RandomID(rng), Addr: transport.Addr(fmt.Sprintf("p%d", rng.Uint64n(1<<(4*(i%8)+4))))}
			node.table.Observe(c)
			tracked = append(tracked, c.ID)
		}
		// The asker is tracked by its own request: a table fed no IDs answers
		// with the asker alone.
		asker := Contact{ID: RandomID(rng), Addr: "asker"}
		targets := []ID{self, asker.ID, RandomID(rng), RandomID(rng)}
		if size > 0 {
			targets = append(targets, tracked[rng.Intn(size)])
		}
		for _, prefix := range []int{1, 63, 64, 65, IDBits - 1} {
			targets = append(targets, idSharing(self, prefix, rng))
		}
		for i, target := range targets {
			req := Message{Kind: KindFindNode, RPCID: uint64(1000*size + i + 1), From: asker, Target: target}
			wire, err := req.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			ep.last = ep.last[:0]
			node.Receive(asker.Addr, wire)

			resp := Message{Kind: KindFindNodeResp, RPCID: req.RPCID, From: node.Contact(),
				Contacts: node.table.AppendClosest(nil, target, bucketK)}
			want, err := resp.AppendEncode(nil)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("table of %d, FIND_NODE to %s", size, target.Short())
			if len(ep.last) != len(want) {
				t.Fatalf("%s: reply is %d bytes, the Message it replaces %d", name, len(ep.last), len(want))
			}
			got, err := DecodeMessage(ep.last)
			if err != nil {
				t.Fatalf("%s: reply does not decode: %v", name, err)
			}
			header := got
			header.Contacts = resp.Contacts
			if reenc, _ := header.AppendEncode(nil); !bytes.Equal(reenc, want) {
				t.Fatalf("%s: reply header differs from the Message it replaces:\n got %+v\nwant %+v", name, got, resp)
			}
			checkResponseRecords(t, self, target, got.Contacts, resp.Contacts)
		}
	}
}

// BenchmarkFindNodeReply times the answering half of a FIND_NODE: decode,
// observe the asker, select the K nearest of a 2000-ID table and write them
// into the reply datagram. CI gates it at 0 allocs/op, like the asking half
// (BenchmarkLookupResponse/seen).
func BenchmarkFindNodeReply(b *testing.B) {
	rng := stats.NewRNG(2000)
	node, err := NewNode(Config{ID: RandomID(rng), Endpoint: sinkEndpoint{}, Clock: sim.NewSimulator()})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		node.table.Observe(Contact{ID: RandomID(rng), Addr: transport.Addr(fmt.Sprintf("node-%d", i))})
	}
	// A tracked asker: its observation is a refresh, so no probe is issued.
	asker := node.table.Closest(RandomID(rng), 1)[0]
	var wires [][]byte
	for i := 0; i < 16; i++ {
		wire, err := Message{Kind: KindFindNode, RPCID: uint64(i + 1), From: asker, Target: RandomID(rng)}.AppendEncode(nil)
		if err != nil {
			b.Fatal(err)
		}
		wires = append(wires, wire)
	}
	node.Receive(asker.Addr, wires[0]) // warm the scratch's wire buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Receive(asker.Addr, wires[i%len(wires)])
	}
}
