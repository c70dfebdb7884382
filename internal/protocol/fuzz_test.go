package protocol_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/testutil"
	"selfemerge/internal/transport"
)

// FuzzNodeDatagram writes arbitrary bytes to a holder from a stranger's
// address: the input a real socket exposes to anyone. dht.handle decodes
// it, and an APP payload goes through OnApp into Host.HandleApp under the
// forged source. Whatever the bytes, nothing panics, and what a delivered
// copy costs on average is bounded by its length (testutil.BoundDecodeAllocs),
// so no decoder or handler on the receive path sizes memory from a count the
// datagram only claims. The victim still answers a peer's ping a simulated
// minute later. And the network drains: nothing the datagram sets off runs
// later than a minute past the last instant it names (a forged package may
// ask to be held until then). After the drain the victim's custody is within
// its bounds (protocol.CheckBounds), and once the datagram's horizon has
// passed the victim owes no record.
func FuzzNodeDatagram(f *testing.F) {
	stranger := dht.Contact{ID: dht.IDFromKey([]byte("stranger")), Addr: "stranger"}
	wire := func(m dht.Message) []byte {
		m.From = stranger
		data, err := m.AppendEncode(nil)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(wire(dht.Message{Kind: dht.KindPing, RPCID: 1}))
	f.Add(wire(dht.Message{Kind: dht.KindFindNode, RPCID: 2, Target: dht.IDFromKey([]byte("target"))}))
	f.Add(wire(dht.Message{Kind: dht.KindAppAck, RPCID: 3}))
	hold := sim.NewSimulator().Now().Add(30 * time.Second).UnixNano() // inside the first simulated minute
	var central []byte
	var centralPkt Packet
	for kind := protocol.PkCentral; kind <= protocol.PkSecret; kind++ {
		data := bytes.Repeat([]byte{0x5e}, 48) // no key opens it
		switch kind {
		case protocol.PkKeyGrant:
			data = make([]byte, seal.KeySize)
		case protocol.PkColShare, protocol.PkSlotShare:
			data = protocol.AppendEncodeShareBlob(nil, shamir.Share{M: 2, X: 1, Data: bytes.Repeat([]byte{0x5e}, seal.KeySize)})
		}
		pkt := Packet{Mission: MissionID{byte(kind)}, Kind: kind, Column: 1, Width: 2, HoldUntil: hold,
			Step: int64(time.Minute), Target: dht.IDFromKey([]byte("receiver")), Data: data}
		app := wire(dht.Message{Kind: dht.KindApp, App: pkt.AppendEncode(nil)})
		if kind == protocol.PkCentral {
			central, centralPkt = app, pkt
		}
		f.Add(app)
	}
	f.Add(central[:len(central)/2])                                                          // truncated
	f.Add(append(bytes.Clone(central), make([]byte, transport.MaxDatagram-len(central))...)) // largest datagram
	// Lengths and counts that claim far more than the datagram carries: an
	// app payload of 16 MiB, a package's data of 16 MiB, and a FIND_NODE
	// response of maxContacts contacts that carries one.
	claim := func(data []byte, at int, n uint32) []byte {
		data = bytes.Clone(data)
		binary.BigEndian.PutUint32(data[at:], n)
		return data
	}
	inner := centralPkt.AppendEncode(nil)
	f.Add(claim(central, len(central)-len(inner)-4, 1<<24))
	f.Add(wire(dht.Message{Kind: dht.KindApp, App: claim(inner, len(inner)-len(centralPkt.Data)-4, 1<<24)}))
	// A response's contact count is the byte before its (here empty) app
	// payload's four-byte length when it lists nobody.
	countAt := len(wire(dht.Message{Kind: dht.KindFindNodeResp, RPCID: 4})) - 5
	claimsContacts := wire(dht.Message{Kind: dht.KindFindNodeResp, RPCID: 4, Contacts: []dht.Contact{stranger}})
	claimsContacts[countAt] = 64
	f.Add(claimsContacts)
	// Holds before the epoch and at the end of time.
	for _, at := range []int64{math.MinInt64, math.MaxInt64} {
		pkt := Packet{Kind: protocol.PkCentral, HoldUntil: at, Target: dht.IDFromKey([]byte("receiver")), Data: []byte("s")}
		f.Add(wire(dht.Message{Kind: dht.KindApp, App: pkt.AppendEncode(nil)}))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tb := newTestbed(t, 8, 0, false)
		victim, peer := tb.nodes[3], tb.nodes[5]
		start := tb.sim.Now().UnixNano()
		horizon := start
		if m, err := dht.DecodeMessage(data); err == nil && m.Kind == dht.KindApp {
			if p, err := DecodePacket(m.App); err == nil {
				horizon = max(horizon, p.HoldUntil)
			}
		}
		if len(data) > transport.MaxDatagram {
			return // larger than any datagram: no socket delivers it
		}
		from := tb.net.Endpoint(stranger.Addr)
		testutil.BoundDecodeAllocs(t, data, func() {
			if err := from.Send(victim.Contact().Addr, data); err != nil {
				t.Fatal(err)
			}
			tb.sim.RunFor(deliveryLatency)
		})
		tb.sim.RunFor(time.Minute)

		pingErr, pinged := error(nil), false
		peer.Ping(victim.Contact(), func(err error) { pingErr, pinged = err, true })
		tb.sim.RunFor(time.Minute)
		if !pinged || pingErr != nil {
			t.Fatalf("the victim no longer answers a ping: ran=%v err=%v", pinged, pingErr)
		}
		ran := tb.sim.Now().UnixNano() // the end of the test's own runs

		const maxEvents = 100_000
		for events := 0; tb.sim.Step(); events++ {
			if events == maxEvents {
				t.Fatalf("the network has not drained after %d events", events)
			}
		}
		if now := tb.sim.Now().UnixNano(); now > ran && now-horizon > int64(time.Minute) {
			t.Fatalf("the network drained %v after the last instant the datagram names", time.Duration(now-horizon))
		}
		host := tb.hosts[3]
		if err := protocol.CheckBounds(host); err != nil {
			t.Fatal(err)
		}
		if got := host.Records(); got > 1 {
			t.Fatalf("one datagram left %d records", got)
		}
		forgotten := time.Unix(0, min(horizon, start+int64(protocol.MaxHoldAhead))).Add(protocol.LateGrace)
		tb.sim.RunUntil(forgotten)
		if got := host.Records(); got != 0 {
			t.Fatalf("the victim owes %d records past the datagram's horizon", got)
		}
	})
}

// TestFloodOfMissionsStaysBounded: a stranger floods a holder of a simnet
// cluster with packets of fresh mission IDs — key grants, column shares and
// onions no key opens, each due in an hour — past the records one host may
// owe. The holder keeps maxLiveRecords of them and counts the rest as
// refused; its custody stays within every bound; and past the packets'
// horizon it owes nothing and the network drains.
func TestFloodOfMissionsStaysBounded(t *testing.T) {
	tb := newTestbed(t, 8, 0, false)
	host := tb.hosts[3]
	hold := tb.sim.Now().Add(time.Hour)
	const flood = protocol.MaxLiveRecords + 200
	kinds := []protocol.PacketKind{protocol.PkKeyGrant, protocol.PkColShare, protocol.PkMainOnion}
	for i := range flood {
		pkt := Packet{Kind: kinds[i%len(kinds)], Column: 1, Width: 2, HoldUntil: hold.UnixNano(), Step: int64(time.Hour)}
		binary.BigEndian.PutUint32(pkt.Mission[:], uint32(i))
		switch pkt.Kind {
		case protocol.PkKeyGrant:
			pkt.Data = make([]byte, seal.KeySize)
		case protocol.PkColShare:
			pkt.Data = protocol.AppendEncodeShareBlob(nil, shamir.Share{M: 2, X: 1, Data: make([]byte, seal.KeySize)})
		default:
			pkt.Data = bytes.Repeat([]byte{0x5e}, 48)
		}
		strangerSends(t, tb, 3, pkt)
	}
	tb.sim.RunFor(time.Minute)
	if got := host.Records(); got != protocol.MaxLiveRecords {
		t.Fatalf("the flood left %d records, want the bound %d", got, protocol.MaxLiveRecords)
	}
	if got := host.Refusals().Records; got != flood-protocol.MaxLiveRecords {
		t.Fatalf("%d packets refused at the record bound, want %d", got, flood-protocol.MaxLiveRecords)
	}
	if err := protocol.CheckBounds(host); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(hold.Add(protocol.LateGrace))
	if got := host.Records(); got != 0 {
		t.Fatalf("the victim owes %d records past the flood's horizon", got)
	}
	for events := 0; tb.sim.Step(); events++ {
		if events == 100_000 {
			t.Fatal("the network has not drained")
		}
	}
}

// strangerSends writes pkt to the host of tb.nodes[victim] from a stranger's
// address, as anyone on a real socket can.
func strangerSends(t *testing.T, tb *testbed, victim int, pkt Packet) {
	t.Helper()
	from := dht.Contact{ID: dht.IDFromKey([]byte("stranger")), Addr: "stranger"}
	data, err := dht.Message{Kind: dht.KindApp, From: from, App: pkt.AppendEncode(nil)}.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.net.Endpoint(from.Addr).Send(tb.nodes[victim].Contact().Addr, data); err != nil {
		t.Fatal(err)
	}
}

// TestFloodOfSpentRecordsStaysBounded: a spent record stays in its loop's
// index up to its horizon, and counts towards its host's bound until then. A
// stranger sends a holder central packages of fresh missions one after
// another, each due as it is sent, past the records one host may keep. The
// holder delivers and spends maxLiveRecords of them, each before the next
// arrives, keeps them as spent records, owes none, and refuses and counts
// the rest; once their horizon has passed it takes material again.
func TestFloodOfSpentRecordsStaysBounded(t *testing.T) {
	tb := newTestbed(t, 8, 0, false)
	host := tb.hosts[3]
	const flood = protocol.MaxLiveRecords + 200
	mission := func(i int) (m MissionID) {
		binary.BigEndian.PutUint32(m[:], uint32(i))
		return m
	}
	send := func(i int) {
		strangerSends(t, tb, 3, Packet{Mission: mission(i), Kind: protocol.PkCentral, HoldUntil: tb.sim.Now().UnixNano(),
			Target: dht.IDFromKey([]byte("receiver")), Data: []byte("s")})
		tb.sim.RunFor(deliveryLatency)
	}
	spent := func() (n int) {
		for i := range flood + 1 {
			_, gone := protocol.Custody(host, mission(i))
			n += len(gone)
		}
		return n
	}
	for i := range flood {
		send(i)
	}
	last := tb.sim.Now()
	tb.sim.RunFor(time.Minute)
	if got := spent(); got != protocol.MaxLiveRecords || host.Records() != 0 {
		t.Fatalf("the flood left %d spent records and %d owed, want the bound %d and none", got, host.Records(), protocol.MaxLiveRecords)
	}
	if got := host.Refusals().Records; got != flood-protocol.MaxLiveRecords {
		t.Fatalf("%d packets refused at the record bound, want %d", got, flood-protocol.MaxLiveRecords)
	}
	if err := protocol.CheckBounds(host); err != nil {
		t.Fatal(err)
	}
	tb.sim.RunUntil(last.Add(protocol.LateGrace))
	send(flood)
	if got := spent(); got != 1 || host.Refusals().Records != flood-protocol.MaxLiveRecords {
		t.Fatalf("past the flood's horizon: %d spent records, refusals %+v; want the new mission's alone", got, host.Refusals())
	}
}

// FuzzDecodePacket asserts the wire codec's invariants on arbitrary input:
// decoding never panics nor allocates more than a few bytes per input byte
// (testutil.BoundDecodeAllocs), anything that decodes re-encodes to a canonical form
// that survives another decode/encode cycle byte-for-byte, and an encode
// appended after a non-empty prefix (a recycled send buffer in use) leaves
// the prefix intact.
func FuzzDecodePacket(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 80))
	valid := protocol.Packet{
		Mission:   protocol.MissionID{1, 2, 3},
		Kind:      protocol.PkSlotShare,
		Column:    3,
		Slot:      1,
		Width:     5,
		X:         9,
		HoldUntil: 123456789,
		Step:      3600,
		Target:    dht.IDFromKey([]byte("receiver")),
		Data:      []byte("share blob"),
	}
	f.Add(valid.AppendEncode(nil))
	f.Add(protocol.Packet{Kind: protocol.PkSecret, Data: []byte("s")}.AppendEncode(nil))
	// The valid packet claiming 16 MiB of data behind its length field.
	claims := valid.AppendEncode(nil)
	binary.BigEndian.PutUint32(claims[len(claims)-len(valid.Data)-4:], 1<<24)
	f.Add(claims)

	f.Fuzz(func(t *testing.T, data []byte) {
		testutil.BoundDecodeAllocs(t, data, func() { _, _ = protocol.DecodePacket(data) })
		pkt, err := protocol.DecodePacket(data)
		if err != nil {
			return
		}
		enc := pkt.AppendEncode(nil)
		again, err := protocol.DecodePacket(enc)
		if err != nil {
			t.Fatalf("decoded packet failed to re-decode: %v", err)
		}
		prefix := []byte("prefix")
		enc2 := again.AppendEncode(bytes.Clone(prefix))
		if !bytes.HasPrefix(enc2, prefix) {
			t.Fatalf("AppendEncode clobbered its prefix: %x", enc2)
		}
		if enc2 = enc2[len(prefix):]; !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not canonical:\n  first  %x\n  second %x", enc, enc2)
		}
		if again.Kind != pkt.Kind || again.Mission != pkt.Mission ||
			again.Column != pkt.Column || again.Slot != pkt.Slot ||
			again.Width != pkt.Width || again.X != pkt.X ||
			again.HoldUntil != pkt.HoldUntil || again.Step != pkt.Step ||
			again.Target != pkt.Target || !bytes.Equal(again.Data, pkt.Data) {
			t.Fatalf("round trip mutated fields: %+v vs %+v", pkt, again)
		}
	})
}

// FuzzParseShareBlob asserts the share-blob codecs never panic on arbitrary
// payloads nor allocate more than a few bytes per input byte, and that
// whatever parses is consistent: ParseShare accepts exactly the blobs of a
// nonzero threshold, a nonzero X and some data, returns a view of the data
// and round-trips through the blob encoding; ParseShareTag only accepts the
// two tags around a share ParseShare accepts, returns a view of its input
// and re-encodes to it; and every share tags and untags to itself at column
// scope and at slots 0 and 65535, with each truncation that cuts its data
// off rejected.
func FuzzParseShareBlob(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x05})
	f.Add([]byte{0x02, 0x05, 0xAA, 0xBB, 0xCC})
	f.Add([]byte{0x00, 0x05, 0xAA})             // threshold 0
	f.Add([]byte{0x02, 0x00, 0xAA})             // X 0
	f.Add([]byte{0xC0, 0x02, 0x05, 0xAA, 0xBB}) // tagged column share
	f.Add([]byte{0x51, 0x00, 0x02, 0x02, 0x05, 0xAA})
	f.Add([]byte{0x51, 0xFF, 0xFF, 0x02, 0x05}) // slot tag one byte short
	f.Add([]byte{0xC0, 0x02, 0x05})             // column tag one byte short
	f.Fuzz(func(t *testing.T, blob []byte) {
		testutil.BoundDecodeAllocs(t, blob, func() {
			_, _ = protocol.ParseShare(blob)
			_, _, _ = protocol.ParseShareTag(blob)
		})
		share, err := protocol.ParseShare(blob)
		if valid := len(blob) >= 3 && blob[0] != 0 && blob[1] != 0; valid != (err == nil) {
			t.Fatalf("ParseShare(%x) error %v", blob, err)
		}
		if err == nil {
			if share.M != blob[0] || share.X != blob[1] || &share.Data[0] != &blob[2] || len(share.Data) != len(blob)-2 {
				t.Fatalf("ParseShare(%x) = %+v", blob, share)
			}
			if again := protocol.AppendEncodeShareBlob([]byte("pfx"), share); !bytes.Equal(again, append([]byte("pfx"), blob...)) {
				t.Fatalf("share %x re-encodes after a prefix to %x", blob, again)
			}
			for _, slot := range []int{protocol.ColumnWide, 0, 65535} {
				tagged := protocol.AppendEncodeShareTag([]byte("pfx"), slot, share)[3:]
				gotSlot, got, err := protocol.ParseShareTag(tagged)
				if err != nil || gotSlot != slot || !bytes.Equal(got, blob) {
					t.Fatalf("tag round trip at slot %d: (%d, %x, %v), want share %x", slot, gotSlot, got, err, blob)
				}
				for n := 0; n <= len(tagged)-len(share.Data); n++ {
					if _, _, err := protocol.ParseShareTag(tagged[:n]); err == nil {
						t.Fatalf("ParseShareTag accepted %x, slot %d's tag with its data cut off", tagged[:n], slot)
					}
				}
			}
		}
		slot, inner, err := protocol.ParseShareTag(blob)
		if err != nil {
			return
		}
		share, err = protocol.ParseShare(inner)
		if err != nil {
			t.Fatalf("ParseShareTag(%x) returned unparseable share %x", blob, inner)
		}
		switch {
		case slot == protocol.ColumnWide:
			if blob[0] != 0xC0 || &inner[0] != &blob[1] {
				t.Fatalf("column tag (%x) = share %x", blob, inner)
			}
		case slot == int(blob[1])<<8|int(blob[2]):
			if blob[0] != 0x51 || &inner[0] != &blob[3] {
				t.Fatalf("slot tag (%x) = (%d, %x)", blob, slot, inner)
			}
		default:
			t.Fatalf("ParseShareTag(%x) returned slot %d", blob, slot)
		}
		if again := protocol.AppendEncodeShareTag(nil, slot, share); !bytes.Equal(again, blob) {
			t.Fatalf("tagged blob %x re-encodes to %x", blob, again)
		}
	})
}

// FuzzSharePacketRoundTrip drives arbitrary share coordinates through the
// full PkColShare/PkSlotShare path: share blob encoding, packet encoding,
// decode, and share re-parse must return the original share exactly, or
// reject one without data, threshold or X.
func FuzzSharePacketRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(1), []byte("share data"), uint16(2), uint16(0), false)
	f.Add(uint8(255), uint8(255), []byte{0}, uint16(65535), uint16(65535), true)
	f.Add(uint8(3), uint8(0), []byte{}, uint16(0), uint16(9), true)
	f.Add(uint8(0), uint8(7), []byte("no threshold"), uint16(1), uint16(1), false)
	f.Fuzz(func(t *testing.T, m, x uint8, data []byte, column, slot uint16, isSlot bool) {
		kind := protocol.PkColShare
		if isSlot {
			kind = protocol.PkSlotShare
		}
		share := shamir.Share{M: m, X: x, Data: data}
		blob := protocol.AppendEncodeShareBlob(nil, share)
		pkt := protocol.Packet{
			Mission:   protocol.MissionID{0xF0, 0x0D},
			Kind:      kind,
			Column:    column,
			Slot:      slot,
			Width:     column, // exercised alongside the repair metadata
			HoldUntil: 1 << 40,
			Step:      1 << 30,
			Data:      blob,
		}
		decoded, err := protocol.DecodePacket(pkt.AppendEncode(nil))
		if err != nil {
			t.Fatalf("share packet failed to decode: %v", err)
		}
		if decoded.Kind != kind || decoded.Column != column || decoded.Slot != slot {
			t.Fatalf("share packet mutated: %+v", decoded)
		}
		got, err := protocol.ParseShare(decoded.Data)
		if len(data) == 0 || m == 0 || x == 0 {
			// The codec must say so rather than fabricate coordinates.
			if err == nil {
				t.Fatalf("share %+v accepted", share)
			}
			return
		}
		if err != nil {
			t.Fatalf("share blob failed to re-parse: %v", err)
		}
		if got.M != m || got.X != x || !bytes.Equal(got.Data, data) {
			t.Fatalf("share mutated: %+v vs %+v", got, share)
		}
	})
}
