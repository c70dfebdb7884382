package adversary

import (
	"sync"
	"time"

	"selfemerge/internal/dht"
	"selfemerge/internal/protocol"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
)

// Forger drives the bucket-poisoning half of StrategyEclipse: from every
// attacker-controlled endpoint it emits forged DHT pings whose From claims
// an identifier inside an observed mission zone. The victim's node rewrites
// the claimed address to the datagram's socket source (the attacker's own
// address), so a table that admits the forgery on an unverified observation
// ends up routing zone traffic at the attacker — and a table that evicts a
// live peer for it loses real routes. Against dht.TablePingEvict both doors
// are closed; against dht.TableNaive the flood displaces quiet live entries
// once they pass the staleness threshold, which is what the attack curves
// measure.
//
// Zone intelligence arrives through ObserveZone (wired to the Collector's
// zone sink): any packet a Sybil holder observes names its mission and
// holder-slot coordinates, and SlotID is public derivation, so the adversary
// aims at the observed zone and the next column's — where the mission's
// future traffic must flow. Before any intel arrives, forged identifiers
// are uniform random (blind poisoning).
//
// The forger is one actor with one RNG stream over a population that may
// span several concurrently running event loops, so it owns no events: the
// network's driver advances every loop to NextTick, and calls Tick while
// they are all paused there. Zone intelligence reaches it the same way (the
// collector is fed at barriers, in global timestamp order), and the attacker
// sends Tick issues enter the fabric from the one driving goroutine — so what
// the flood does is a pure function of the seed, never of how the loops were
// scheduled. A Forger is only constructed for eclipse runs, leaving honest
// and spy/drop runs untouched.
type Forger struct {
	rate float64 // forged contacts per attacker per minute
	next time.Time

	// mu: churn deaths on concurrently running shard loops each register
	// their replacement here (Network.spawn), beside the driver's Tick and
	// ObserveZone at barriers.
	mu        sync.Mutex
	rng       *stats.RNG
	attackers map[int]transport.Endpoint
	attIdx    []int // sorted attacker slots, for deterministic choice
	victims   []transport.Addr
	victimSet map[transport.Addr]bool
	zones     []dht.ID
	zoneSet   map[dht.ID]bool
	acc       float64
	forged    uint64
}

// maxZoneTargets bounds the zone-intel list; missions are finite but
// long sweeps accumulate.
const maxZoneTargets = 1 << 14

// zoneSuffixBytes is how many trailing identifier bytes are randomized
// around a zone target, scattering forgeries through the zone's vicinity
// while keeping the high prefix (and therefore the victims' bucket index)
// intact.
const zoneSuffixBytes = 4

// NewForger creates a forger whose first tick is one pacing quantum after
// start.
func NewForger(start time.Time, ratePerAttackerPerMinute float64, seed uint64) *Forger {
	return &Forger{
		rate:      ratePerAttackerPerMinute,
		next:      start.Add(forgeTick),
		rng:       stats.NewRNG(stats.Mix64(seed, 0xec11b5e)),
		attackers: make(map[int]transport.Endpoint),
		victimSet: make(map[transport.Addr]bool),
		zoneSet:   make(map[dht.ID]bool),
	}
}

// SetAttacker registers the endpoint of the malicious node at population
// slot idx (churn replacements re-register).
func (f *Forger) SetAttacker(idx int, ep transport.Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, known := f.attackers[idx]; !known {
		// Keep the slot list sorted so the per-forge attacker draw is a
		// deterministic function of the RNG stream alone.
		pos := len(f.attIdx)
		for i, v := range f.attIdx {
			if v > idx {
				pos = i
				break
			}
		}
		f.attIdx = append(f.attIdx, 0)
		copy(f.attIdx[pos+1:], f.attIdx[pos:])
		f.attIdx[pos] = idx
	}
	f.attackers[idx] = ep
}

// ClearAttacker drops slot idx from the attacker set (an honest churn
// replacement took the slot over).
func (f *Forger) ClearAttacker(idx int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, known := f.attackers[idx]; !known {
		return
	}
	delete(f.attackers, idx)
	for i, v := range f.attIdx {
		if v == idx {
			f.attIdx = append(f.attIdx[:i], f.attIdx[i+1:]...)
			break
		}
	}
}

// AddVictim registers a flood target address (idempotent).
func (f *Forger) AddVictim(addr transport.Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.victimSet[addr] {
		return
	}
	f.victimSet[addr] = true
	f.victims = append(f.victims, addr)
}

// ObserveZone ingests holder-slot intelligence: the zone of the observed
// packet and of the next column's same slot, where the mission's future
// traffic must flow. Matches the Collector's zone-sink signature.
func (f *Forger) ObserveZone(mission protocol.MissionID, column, slot int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addZone(protocol.SlotID(mission, column, slot))
	f.addZone(protocol.SlotID(mission, column+1, slot))
}

// addZone records a target zone identifier. Callers hold f.mu.
func (f *Forger) addZone(id dht.ID) {
	if f.zoneSet[id] || len(f.zones) >= maxZoneTargets {
		return
	}
	f.zoneSet[id] = true
	f.zones = append(f.zones, id)
}

// Forged reports how many forged contacts have been emitted.
func (f *Forger) Forged() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.forged
}

// forgeTick is the forger's pacing quantum.
const forgeTick = time.Second

// NextTick returns the simulated instant of the forger's next action.
func (f *Forger) NextTick() time.Time { return f.next }

// Tick emits one pacing quantum's forgeries — rate forged contacts per
// attacker per minute, fractional rates accumulating across ticks — and
// advances NextTick. The caller holds every event loop paused at NextTick.
func (f *Forger) Tick() {
	f.next = f.next.Add(forgeTick) // driver-only state, like NextTick's read
	f.mu.Lock()
	f.acc += float64(len(f.attackers)) * f.rate * forgeTick.Minutes()
	n := int(f.acc)
	f.acc -= float64(n)
	type forgery struct {
		ep     transport.Endpoint
		victim transport.Addr
		id     dht.ID
	}
	var batch []forgery
	if n > 0 && len(f.attackers) > 0 && len(f.victims) > 0 {
		batch = make([]forgery, 0, n)
		for i := 0; i < n; i++ {
			ep := f.attackers[f.attIdx[f.rng.Uint64n(uint64(len(f.attIdx)))]]
			victim := f.victims[f.rng.Uint64n(uint64(len(f.victims)))]
			var id dht.ID
			if len(f.zones) > 0 {
				id = f.zones[f.rng.Uint64n(uint64(len(f.zones)))]
				for b := len(id) - zoneSuffixBytes; b < len(id); b++ {
					id[b] = byte(f.rng.Uint64n(256))
				}
			} else {
				id = dht.RandomID(f.rng)
			}
			batch = append(batch, forgery{ep: ep, victim: victim, id: id})
		}
		f.forged += uint64(len(batch))
	}
	f.mu.Unlock()

	// Emit outside the lock: Send re-enters the transport fabric.
	var buf []byte
	for _, fo := range batch {
		msg := dht.Message{Kind: dht.KindPing, From: dht.Contact{ID: fo.id, Addr: fo.ep.Addr()}}
		data, err := msg.AppendEncode(buf[:0])
		if err != nil {
			continue
		}
		buf = data
		_ = fo.ep.Send(fo.victim, data)
	}
}
