// Package adversary implements the attack machinery of Section II-B: a
// collector aggregating everything Sybil-controlled holders observe and an
// inference engine that tries to reconstruct the protected secret from it
// before the release time (the release-ahead attack). The drop attack is
// enacted by the holders themselves (protocol.HostConfig.Drop); this
// package records what the adversary could decrypt and when.
package adversary

import (
	"time"

	"selfemerge/internal/crypto/onion"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
)

// Collector aggregates packets reported by malicious holders and attempts
// secret reconstruction after every new observation. It has no lock: a
// Network feeds it from its driving goroutine, at barriers, in global
// timestamp order (releaseReports), and queries come between runs; the hosts
// of a one-loop test may report to it directly.
type Collector struct {
	missions map[protocol.MissionID]*intel
	zoneSink func(mission protocol.MissionID, column, slot int)
}

// SetZoneSink installs a callback receiving the holder-slot coordinates of
// every reported packet — the routing-layer intelligence StrategyEclipse
// aims its forgeries with (see Forger.ObserveZone).
func (c *Collector) SetZoneSink(sink func(mission protocol.MissionID, column, slot int)) {
	c.zoneSink = sink
}

// intel is what the adversary holds of one mission, keyed like a holder's
// custody by the protocol.Ref each piece lives at: granted layer keys, the
// shares collected towards the rest, and the onions not yet opened.
type intel struct {
	keys   map[protocol.Ref]seal.Key
	shares map[protocol.Ref]*protocol.Shares
	onions map[protocol.Ref][]byte
	// tries counts the keys tried on the onions.
	tries int

	secret      []byte
	recoveredAt time.Time
	packets     int
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{missions: make(map[protocol.MissionID]*intel)}
}

var _ protocol.Reporter = (*Collector)(nil)

// Report ingests one observed packet and re-runs inference.
func (c *Collector) Report(now time.Time, _ dht.ID, pkt protocol.Packet) {
	in := c.intel(pkt.Mission)
	in.packets++
	ref := pkt.Ref()
	switch pkt.Kind {
	case protocol.PkCentral, protocol.PkSecret:
		// The central holder sees the secret outright; a secret is the
		// legitimate release passing through a malicious relay.
		in.note(pkt.Data, now)
	case protocol.PkKeyGrant:
		if key, err := seal.KeyFromBytes(pkt.Data); err == nil {
			in.keys[ref] = key
		}
	case protocol.PkMainOnion, protocol.PkSlotOnion:
		if _, ok := in.onions[ref]; !ok {
			// Clone: observed packet payloads alias recycled delivery buffers.
			in.onions[ref] = append([]byte(nil), pkt.Data...)
		}
	case protocol.PkColShare, protocol.PkSlotShare:
		in.addShare(ref, pkt.Data)
	}
	c.infer(in, now)
	if c.zoneSink != nil {
		c.zoneSink(pkt.Mission, int(pkt.Column), int(pkt.Slot))
	}
}

// Recovered reports whether (and when) the adversary reconstructed the
// mission secret.
func (c *Collector) Recovered(mission protocol.MissionID) (time.Time, bool) {
	in, ok := c.missions[mission]
	if !ok || in.secret == nil {
		return time.Time{}, false
	}
	return in.recoveredAt, true
}

// Secret returns the reconstructed secret, if any.
func (c *Collector) Secret(mission protocol.MissionID) ([]byte, bool) {
	in, ok := c.missions[mission]
	if !ok || in.secret == nil {
		return nil, false
	}
	out := make([]byte, len(in.secret))
	copy(out, in.secret)
	return out, true
}

// Packets returns how many observations were collected for a mission.
func (c *Collector) Packets(mission protocol.MissionID) int {
	in, ok := c.missions[mission]
	if !ok {
		return 0
	}
	return in.packets
}

func (c *Collector) intel(id protocol.MissionID) *intel {
	in, ok := c.missions[id]
	if !ok {
		in = &intel{
			keys:   make(map[protocol.Ref]seal.Key),
			shares: make(map[protocol.Ref]*protocol.Shares),
			onions: make(map[protocol.Ref][]byte),
		}
		c.missions[id] = in
	}
	return in
}

func (in *intel) note(secret []byte, now time.Time) {
	if in.secret != nil {
		return
	}
	in.secret = append([]byte(nil), secret...)
	in.recoveredAt = now
}

// addShare parses a share blob into the collection at ref, as a holder does.
func (in *intel) addShare(ref protocol.Ref, blob []byte) {
	share, err := protocol.ParseShare(blob)
	if err != nil {
		return
	}
	s := in.shares[ref]
	if s == nil {
		s = new(protocol.Shares)
		in.shares[ref] = s
	}
	s.Add(share)
}

// infer runs decrypt-to-fixpoint: recover keys from shares, peel every
// onion a key opens, harvest shares and inner onions from peeled layers,
// repeat until nothing new — then check whether the secret fell out.
func (c *Collector) infer(in *intel, now time.Time) {
	if in.secret != nil {
		return
	}
	for progress := true; progress; {
		progress = false
		for ref, sealed := range in.onions {
			key, layer, ok := in.open(ref, sealed)
			if !ok {
				continue
			}
			// A key recovered from shares stays known: their memo would not
			// recover it again.
			in.keys[ref] = key
			delete(in.onions, ref)
			progress = true
			if layer.Payload != nil {
				in.note(layer.Payload, now)
				return
			}
			// A slot-onion layer carries shares of the next column's keys;
			// the rest of either onion continues at the same scope.
			for _, blob := range layer.Shares {
				if slot, share, err := protocol.ParseShareTag(blob); err == nil {
					in.addShare(protocol.Ref{Column: ref.Column + 1, Slot: int32(slot)}, share)
				}
			}
			if layer.Rest != nil {
				next := protocol.Ref{Column: ref.Column + 1, Slot: ref.Slot}
				if _, have := in.onions[next]; !have {
					in.onions[next] = layer.Rest
				}
			}
		}
	}
}

// open peels the onion sealed at ref with the key granted there or, for want
// of one, with the key its shares recover (protocol.Shares.Recover, the rule
// a holder's peel runs), the onion being the oracle.
func (in *intel) open(ref protocol.Ref, sealed []byte) (key seal.Key, layer onion.Layer, ok bool) {
	try := func(k seal.Key) bool {
		var err error
		key, in.tries = k, in.tries+1
		layer, err = onion.Peel(k, sealed)
		return err == nil
	}
	if granted, known := in.keys[ref]; known {
		ok = try(granted)
	} else if shares := in.shares[ref]; shares != nil {
		ok = shares.Recover(try)
	}
	return key, layer, ok
}
