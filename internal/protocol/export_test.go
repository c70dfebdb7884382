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
// h keeps, the shares each of them keeps and the deadlines they hold to.
func CheckBounds(h *Host) error {
	now := h.node.Clock().Now().UnixNano()
	if h.live > maxLiveRecords {
		return fmt.Errorf("%s keeps %d records, bound %d", h.node.ID().Short(), h.live, maxLiveRecords)
	}
	for k, rec := range h.ledger.index {
		switch {
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
// indexes a record of h's it has not spent, and those at which a spent record
// of h's refuses material until its horizon.
func Custody(h *Host, mission MissionID) (held, forgotten []Ref) {
	now := h.node.Clock().Now().UnixNano()
	for k, rec := range h.ledger.index {
		switch {
		case k.mission != mission || k.incarnation != h.node.Incarnation():
		case !rec.forwarded:
			held = append(held, k.ref)
		case rec.until+int64(lateGrace) > now:
			forgotten = append(forgotten, k.ref)
		}
	}
	return held, forgotten
}

// ExpireCustody forgets, on h's loop, the custody whose horizon has passed,
// as the next packet one of its hosts takes would.
func ExpireCustody(h *Host) { h.ledger.expire(h.node.Clock().Now().UnixNano()) }

// SpentCustody returns, for every spent record of h's at mission that its
// loop still indexes, what it keeps (see kept).
func SpentCustody(h *Host, mission MissionID) []string {
	var out []string
	for k, rec := range h.ledger.index {
		if k.mission == mission && k.incarnation == h.node.Incarnation() && rec.forwarded {
			out = append(out, kept(rec, false))
		}
	}
	return out
}

// FreeCustody returns, for every record on the free list of h's loop, what
// it still keeps (see kept), its owner included.
func FreeCustody(h *Host) []string {
	l := h.ledger
	recs := make([]*custody, 0, l.free.Len())
	for l.free.Len() > 0 {
		recs = append(recs, l.free.Get())
	}
	out := make([]string, len(recs))
	for i, rec := range recs {
		out[i] = kept(rec, true)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		l.free.Put(recs[i])
	}
	return out
}

// kept names what rec keeps: an empty string when it keeps nothing but the
// capacity of its share buffers (and, unless owner is asked for, its host,
// ledger, events and place in the aging heap).
func kept(rec *custody, owner bool) string {
	var names []string
	for _, k := range []struct {
		name string
		kept bool
	}{
		{"key", rec.key != seal.Key{}},
		{"plaintext", rec.hold.plain != nil},
		{"shares", len(rec.shares.list) > 0 || slices.ContainsFunc(rec.shares.list[:cap(rec.shares.list)], func(sh shamir.Share) bool { return sh.Data != nil }) ||
			slices.ContainsFunc(rec.shares.buf[:cap(rec.shares.buf)], func(b byte) bool { return b != 0 })},
		{"custody clone", rec.hold.buf != nil || rec.hold.pkt.Data != nil},
		{"owner", owner && (rec.host != nil || rec.ledger != nil || rec.armed != 0 || rec.aging != -1)},
	} {
		if k.kept {
			names = append(names, k.name)
		}
	}
	return strings.Join(names, ", ")
}
