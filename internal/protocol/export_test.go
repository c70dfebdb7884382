package protocol

import (
	"strings"

	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/dht"
)

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

// ForwardedCustody returns, for every record of h's custody of mission that
// has sent its package on, what the record still keeps: an empty string when
// it keeps nothing, else the names of what it keeps.
func ForwardedCustody(h *Host, mission MissionID) map[Ref]string {
	out := make(map[Ref]string)
	for k, rec := range h.records {
		if k.mission != mission || !rec.forwarded {
			continue
		}
		var kept []string
		for _, k := range []struct {
			name string
			kept bool
		}{
			{"key", rec.key != seal.Key{}},
			{"repair key", rec.loop.key != seal.Key{}},
			{"plaintext", rec.hold.plain != nil},
			{"shares", rec.shares.list != nil || rec.shares.buf != nil},
			{"custody clone", rec.hold.buf != nil || rec.hold.pkt.Data != nil},
		} {
			if k.kept {
				kept = append(kept, k.name)
			}
		}
		out[rec.ref] = strings.Join(kept, ", ")
	}
	return out
}
