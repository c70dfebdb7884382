package dht

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"selfemerge/internal/stats"
)

func sampleMessage() Message {
	return Message{
		Kind:   KindFindNodeResp,
		RPCID:  0xDEADBEEF,
		From:   Contact{ID: IDFromKey([]byte("from")), Addr: "node-7"},
		Target: IDFromKey([]byte("target")),
		Contacts: []Contact{
			{ID: IDFromKey([]byte("a")), Addr: "10.0.0.1:4000"},
			{ID: IDFromKey([]byte("b")), Addr: "10.0.0.2:4000"},
		},
		App: []byte("app-payload"),
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := sampleMessage()
	data, err := m.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.RPCID != m.RPCID || got.From.ID != m.From.ID ||
		got.From.Addr != m.From.Addr || got.Target != m.Target {
		t.Errorf("scalar fields mismatch: %+v vs %+v", got, m)
	}
	if !bytes.Equal(got.App, m.App) {
		t.Error("payload mismatch")
	}
	if len(got.Contacts) != 2 || got.Contacts[1].Addr != "10.0.0.2:4000" {
		t.Errorf("contacts mismatch: %+v", got.Contacts)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(21)
	kinds := []Kind{KindPing, KindPong, KindFindNode, KindFindNodeResp, KindApp, KindAppAck}
	err := quick.Check(func(app []byte, rpcID uint64, kindSeed uint8) bool {
		if len(app) > 1024 {
			app = app[:1024]
		}
		m := Message{
			Kind:  kinds[int(kindSeed)%len(kinds)],
			RPCID: rpcID,
			From:  Contact{ID: RandomID(rng), Addr: "x"},
			App:   app,
		}
		data, err := m.AppendEncode(nil)
		if err != nil {
			return false
		}
		got, err := DecodeMessage(data)
		if err != nil {
			return false
		}
		return got.Kind == m.Kind && got.RPCID == m.RPCID && bytes.Equal(got.App, m.App)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{1, 2, 3},
		bytes.Repeat([]byte{0xFF}, 100),
	}
	// Valid message with trailing garbage must also fail.
	good, err := sampleMessage().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, append(append([]byte(nil), good...), 0x00))
	// Wrong magic.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	cases = append(cases, bad)
	// Wrong version.
	badV := append([]byte(nil), good...)
	badV[2] = 99
	cases = append(cases, badV)
	// Invalid kind.
	badK := append([]byte(nil), good...)
	badK[3] = 200
	cases = append(cases, badK)

	for i, c := range cases {
		if _, err := DecodeMessage(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

// TestDecodeRejectsRetiredWire: the kinds of the retired value store (5–8:
// STORE, STORE_ACK, FIND_VALUE, FIND_VALUE_RESP) stay reserved, and a datagram
// of wire version 1 is not one of this protocol, whatever it carries.
func TestDecodeRejectsRetiredWire(t *testing.T) {
	good, err := sampleMessage().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMessage(good); err != nil {
		t.Fatalf("the unmodified datagram is rejected: %v", err)
	}
	for kind := byte(5); kind <= 8; kind++ {
		bad := bytes.Clone(good)
		bad[3] = kind
		if _, err := DecodeMessage(bad); err != ErrWire {
			t.Errorf("kind %d: err = %v, want ErrWire", kind, err)
		}
		if name := Kind(kind).String(); name != fmt.Sprintf("Kind(%d)", kind) {
			t.Errorf("reserved kind %d is named %q", kind, name)
		}
	}
	v1 := bytes.Clone(good)
	v1[2] = 1
	if _, err := DecodeMessage(v1); err != ErrWire {
		t.Errorf("wire version 1: err = %v, want ErrWire", err)
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	rng := stats.NewRNG(33)
	good, err := sampleMessage().AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		mangled := append([]byte(nil), good...)
		flips := rng.Intn(8) + 1
		for f := 0; f < flips; f++ {
			mangled[rng.Intn(len(mangled))] ^= byte(rng.Intn(255) + 1)
		}
		if rng.Bool(0.3) {
			mangled = mangled[:rng.Intn(len(mangled))]
		}
		_, _ = DecodeMessage(mangled) // must not panic
	}
}

func TestEncodeLimits(t *testing.T) {
	m := Message{Kind: KindApp, App: make([]byte, maxApp+1)}
	if _, err := m.AppendEncode(nil); err == nil {
		t.Error("oversized app payload accepted")
	}
	m2 := Message{Kind: KindFindNodeResp, Contacts: make([]Contact, maxContacts+1)}
	if _, err := m2.AppendEncode(nil); err == nil {
		t.Error("too many contacts accepted")
	}
}

func TestKindString(t *testing.T) {
	if KindPing.String() != "PING" || KindApp.String() != "APP" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}
