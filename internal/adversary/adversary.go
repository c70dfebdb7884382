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
	"selfemerge/internal/crypto/shamir"
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
	shares map[protocol.Ref][]shamir.Share
	onions map[protocol.Ref][]byte
	// tried is each Ref's share count at its last interpolation, and combines
	// counts the interpolations: a Ref is interpolated again only once a
	// share has arrived there since, as a holder's peel does (triedShares).
	tried    map[protocol.Ref]int
	combines int

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
			shares: make(map[protocol.Ref][]shamir.Share),
			onions: make(map[protocol.Ref][]byte),
			tried:  make(map[protocol.Ref]int),
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

// addShare parses a share blob and keeps the first variant seen for each X
// coordinate, cloning the data (packet payloads alias recycled delivery
// buffers).
func (in *intel) addShare(ref protocol.Ref, blob []byte) {
	x, data, err := protocol.ParseShare(blob)
	if err != nil {
		return
	}
	for _, have := range in.shares[ref] {
		if have.X == x {
			return
		}
	}
	in.shares[ref] = append(in.shares[ref], shamir.Share{X: x, Data: append([]byte(nil), data...)})
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
			key, ok := in.key(ref)
			if !ok {
				continue
			}
			layer, err := onion.Peel(key, sealed)
			if err != nil {
				continue
			}
			// A key recovered from shares stays known: the memo in key
			// would not interpolate its shares again.
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

// key returns the layer key at ref if directly known or recoverable from
// the collected shares. Interpolation through all shares yields the true
// key exactly when the threshold is met; the onion's authenticated layer
// is the verification oracle, so a garbage interpolation merely fails the
// next peel. The onion at a Ref does not change until it opens, so shares
// that failed once fail again: key interpolates a Ref's shares only when
// their count has grown since its last attempt.
func (in *intel) key(ref protocol.Ref) (seal.Key, bool) {
	if key, ok := in.keys[ref]; ok {
		return key, true
	}
	shares := in.shares[ref]
	if len(shares) == in.tried[ref] {
		return seal.Key{}, false // none, or nothing new since the last attempt
	}
	in.tried[ref] = len(shares)
	in.combines++
	raw, err := shamir.Combine(shares, len(shares))
	if err != nil {
		return seal.Key{}, false
	}
	key, err := seal.KeyFromBytes(raw)
	return key, err == nil
}
