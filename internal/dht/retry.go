package dht

import (
	"encoding/binary"
	"time"

	"selfemerge/internal/stats"
)

const (
	// retryBackoff is the base gap between a timeout and the re-send; it
	// doubles per attempt.
	retryBackoff = 300 * time.Millisecond
	// retryMaxBackoff caps the doubled gap.
	retryMaxBackoff = 3 * time.Second
)

// Retrying reports whether the node re-sends timed-out requests
// (Config.Retry above 1).
func (n *Node) Retrying() bool { return n.cfg.Retry > 1 }

// backoff returns the jittered gap before re-send number attempt+1, where
// attempt counts sends already made (>= 1). The gap is exponential with a
// deterministic half-width jitter — uniform in [base/2, base] — drawn from
// the node's seeded retry stream, so two nodes with distinct IDs desynchronize
// their re-sends while a re-run of the same configuration reproduces every
// gap exactly.
func backoff(attempt int, rng *stats.RNG) time.Duration {
	base := retryMaxBackoff
	if attempt-1 < 16 {
		if d := retryBackoff << (attempt - 1); d < base {
			base = d
		}
	}
	half := base / 2
	return half + time.Duration(rng.Uint64n(uint64(half)+1))
}

// retryStream labels the per-node retry-jitter substream, derived from the
// node ID so no extra seed plumbing is needed and no draw is shared with
// any other stream.
const retryStream = 0x7e7291

// retrySeed derives the node's retry-jitter RNG seed from its identifier.
func retrySeed(id ID) uint64 {
	return stats.Mix64(binary.BigEndian.Uint64(id[:8]), retryStream)
}

// Resilience counts a node's fault-recovery activity.
type Resilience struct {
	// Retries is the number of request re-sends (beyond first attempts),
	// early re-sends at the node's retransmission timeout included.
	Retries uint64
	// Recovered is the number of RPCs that settled successfully only
	// because the retry policy held them open past their first timeout, or
	// re-sent them early.
	Recovered uint64
	// Duplicates is the number of duplicate deliveries suppressed: repeated
	// acked app payloads deduplicated at the receiver, plus late or
	// duplicated responses that no longer matched a pending request.
	Duplicates uint64
}

// Add accumulates other into r.
func (r *Resilience) Add(other Resilience) {
	r.Retries += other.Retries
	r.Recovered += other.Recovered
	r.Duplicates += other.Duplicates
}

// Resilience reports the node's fault-recovery counters.
func (n *Node) Resilience() Resilience { return n.resilience }
