package adversary

import (
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/protocol"
)

// key returns the layer key the collector holds or can recover at ref: a key
// granted or kept from an earlier recovery, else the key the shares there
// recover by the holder's rule (protocol.Shares.Recover) — checked against
// the onion held at ref if there is one, and taken unchecked if there is
// none.
func (in *intel) key(ref protocol.Ref) (seal.Key, bool) {
	if key, ok := in.keys[ref]; ok {
		return key, true
	}
	if sealed, ok := in.onions[ref]; ok {
		key, _, ok := in.open(ref, sealed)
		return key, ok
	}
	var key seal.Key
	shares := in.shares[ref]
	ok := shares != nil && shares.Recover(func(k seal.Key) bool { key = k; return true })
	return key, ok
}
