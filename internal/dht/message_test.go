package dht

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"selfemerge/internal/stats"
)

func sampleMessage() Message {
	return Message{
		Kind:   KindFindValueResp,
		RPCID:  0xDEADBEEF,
		From:   Contact{ID: IDFromKey([]byte("from")), Addr: "node-7"},
		Target: IDFromKey([]byte("target")),
		Contacts: []Contact{
			{ID: IDFromKey([]byte("a")), Addr: "10.0.0.1:4000"},
			{ID: IDFromKey([]byte("b")), Addr: "10.0.0.2:4000"},
		},
		Key:   IDFromKey([]byte("key")),
		Value: []byte("stored-bytes"),
		TTL:   90 * time.Minute,
		Found: true,
		App:   []byte("app-payload"),
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
		got.From.Addr != m.From.Addr || got.Target != m.Target || got.Key != m.Key ||
		got.TTL != m.TTL || got.Found != m.Found {
		t.Errorf("scalar fields mismatch: %+v vs %+v", got, m)
	}
	if !bytes.Equal(got.Value, m.Value) || !bytes.Equal(got.App, m.App) {
		t.Error("payload mismatch")
	}
	if len(got.Contacts) != 2 || got.Contacts[1].Addr != "10.0.0.2:4000" {
		t.Errorf("contacts mismatch: %+v", got.Contacts)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(21)
	err := quick.Check(func(value, app []byte, rpcID uint64, kindSeed uint8) bool {
		if len(value) > 1024 {
			value = value[:1024]
		}
		if len(app) > 1024 {
			app = app[:1024]
		}
		m := Message{
			Kind:  Kind(kindSeed%9 + 1),
			RPCID: rpcID,
			From:  Contact{ID: RandomID(rng), Addr: "x"},
			Value: value,
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
		return got.Kind == m.Kind && got.RPCID == m.RPCID &&
			bytes.Equal(got.Value, m.Value) && bytes.Equal(got.App, m.App)
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

	// Non-canonical Found byte (the tenth from the end of a message with no
	// contacts, value or payload).
	found, err := Message{Kind: KindFindValueResp, From: Contact{ID: ID{1}, Addr: "x"}, Found: true}.AppendEncode(nil)
	if err != nil || found[len(found)-10] != 1 {
		t.Fatalf("found byte not where expected: %x, %v", found, err)
	}
	found[len(found)-10] = 2
	cases = append(cases, found)

	for i, c := range cases {
		if _, err := DecodeMessage(c); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
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
	m := Message{Kind: KindApp, App: make([]byte, maxValue+1)}
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
