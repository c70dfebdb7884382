package protocol

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/crypto/shamir"
	"selfemerge/internal/dht"
)

// The custody bounds, for the external tests.
const (
	MaxLiveRecords = maxLiveRecords
	MaxShares      = maxShares
	MaxHoldAhead   = maxHoldAhead
	LateGrace      = lateGrace
)

// CheckBounds reports the first custody bound h's loop exceeds: the records
// h owes, the shares each of them keeps, the deadlines they hold to and the
// loop's tombstones.
func CheckBounds(h *Host) error {
	l, now := h.ledger, h.node.Clock().Now().UnixNano()
	if h.live > maxLiveRecords {
		return fmt.Errorf("%s owes %d records, bound %d", h.node.ID().Short(), h.live, maxLiveRecords)
	}
	if graves := len(l.graves) - l.head; graves > maxGraves {
		return fmt.Errorf("the loop keeps %d tombstones, bound %d", graves, maxGraves)
	}
	for k, e := range l.index {
		switch rec := e.rec; {
		case rec == nil:
		case len(rec.shares.list) > maxShares:
			return fmt.Errorf("the record at %+v keeps %d shares, bound %d", k.ref, len(rec.shares.list), maxShares)
		case rec.until > now+int64(maxHoldAhead):
			return fmt.Errorf("the record at %+v holds to %v past now, bound %v", k.ref, time.Duration(rec.until-now), maxHoldAhead)
		}
	}
	return nil
}

// tappedHost is the OnApp of a host built by NewTappedHost.
type tappedHost struct {
	host *Host
	tap  func(from dht.Contact, payload []byte)
}

func (t tappedHost) HandleApp(from dht.Contact, payload []byte) {
	t.tap(from, payload)
	t.host.HandleApp(from, payload)
}

// NewTappedHost is NewHost whose node hands every payload to tap before the
// host handles it.
func NewTappedHost(cfg HostConfig, node dht.Config, tap func(from dht.Contact, payload []byte)) (*Host, error) {
	h := new(Host)
	if err := h.build(cfg, node, tappedHost{host: h, tap: tap}); err != nil {
		return nil, err
	}
	return h, nil
}

// Custody reports what h holds of mission: the Refs at which its loop
// indexes a record of h's, and those at which a tombstone stands for a record
// that sent its package on.
func Custody(h *Host, mission MissionID) (held, forgotten []Ref) {
	now := h.node.Clock().Now().UnixNano()
	for k, e := range h.ledger.index {
		switch {
		case k.mission != mission || k.incarnation != h.node.Incarnation():
		case e.rec != nil:
			held = append(held, k.ref)
		case e.until > now:
			forgotten = append(forgotten, k.ref)
		}
	}
	return held, forgotten
}

// FreeCustody returns, for every record on the free list of h's loop, what
// it still keeps: an empty string when it keeps nothing but the capacity of
// its share buffers, else the names of what it keeps.
func FreeCustody(h *Host) []string {
	l := h.ledger
	recs := make([]*custody, 0, l.free.Len())
	for l.free.Len() > 0 {
		recs = append(recs, l.free.Get())
	}
	out := make([]string, len(recs))
	for i, rec := range recs {
		var kept []string
		for _, k := range []struct {
			name string
			kept bool
		}{
			{"key", rec.key != seal.Key{}},
			{"plaintext", rec.hold.plain != nil},
			{"shares", len(rec.shares.list) > 0 || slices.ContainsFunc(rec.shares.list[:cap(rec.shares.list)], func(sh shamir.Share) bool { return sh.Data != nil }) ||
				slices.ContainsFunc(rec.shares.buf[:cap(rec.shares.buf)], func(b byte) bool { return b != 0 })},
			{"custody clone", rec.hold.buf != nil || rec.hold.pkt.Data != nil},
			{"owner", rec.host != nil || rec.ledger != nil || rec.armed != 0 || rec.aging != -1},
		} {
			if k.kept {
				kept = append(kept, k.name)
			}
		}
		out[i] = strings.Join(kept, ", ")
	}
	for i := len(recs) - 1; i >= 0; i-- {
		l.free.Put(recs[i])
	}
	return out
}
