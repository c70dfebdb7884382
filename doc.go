// Package selfemerge is a Go implementation of timed-release self-emerging
// data over distributed hash tables, reproducing Li & Palanisamy,
// "Timed-release of Self-emerging Data using Distributed Hash Tables"
// (ICDCS 2017).
//
// A sender encrypts a message, parks the ciphertext in an always-available
// cloud store, and routes the decryption key through a Kademlia DHT along
// pseudo-random multi-hop holder paths so that the key is unavailable to
// everyone — including the receiver — before the release time tr, and
// reappears automatically at tr. Four routing schemes trade attack
// resilience against churn resilience and node cost:
//
//   - SchemeCentral: one holder keeps the key for the whole emerging period.
//   - SchemeDisjoint: k node-disjoint onion paths of l holders (Section III-B).
//   - SchemeJoint: node-joint multipath routing, maximizing path multiplicity
//     (Section III-C).
//   - SchemeKeyShare: onion layer keys delivered just-in-time as Shamir
//     shares (Section III-D, Algorithm 1) — the churn-resilient scheme.
//     Holders recover keys from shares that name their threshold, validated
//     against the authenticated onion layers (so forged shares cannot
//     poison recovery), and surviving custodians re-grant scattered shares
//     to same-zone churn replacements once per holding period. A key, its
//     shares and the onion it opens live at one protocol.Ref (a column, or
//     one slot of it) at the holder and in the adversary's collector; the
//     live-faithful Monte Carlo model (mc.ShareModelLive) mirrors these
//     semantics and cross-validates against live scenario runs.
//
// The package offers an in-process network (simulated time, thousands of
// nodes) for experimentation and testing; the same DHT and protocol code,
// on the same event loop driven by the wall clock (udp.Loop), runs over real
// UDP sockets via cmd/dhtnode. A node and everything it owns is touched from
// its loop alone, so the event path takes no locks. The paper's full evaluation
// (Figures 6, 7 and 8) regenerates via cmd/emergesim and the benchmarks in
// bench_test.go.
//
// Evaluation is organized around the unified experiment engine
// (internal/experiment): a declarative Sweep expands to a deterministic
// per-point-seeded grid, and a worker-pool Runner measures every point
// through one of three interchangeable estimators — the closed-form
// equations (internal/analytic), the Monte Carlo model (internal/mc), or
// live missions through the full protocol stack (internal/scenario), each
// live point booting a private simulator so sweeps scale across cores.
// A single live point scales across cores too: scenario.Config.Shards = S
// partitions its missions over S independent network replicas (each a
// private simulator, fabric and zone map seeded from a substream of the
// point seed), run concurrently and merged in fixed shard order — results
// are byte-identical regardless of GOMAXPROCS or worker counts, and S is
// part of the point descriptor: it selects S independent network
// compositions to average over, shrinking per-network scatter ~sqrt(S).
// Underneath, every network runs on one event-loop engine: a sim.Lockstep
// over a simnet.Partition. NetworkConfig.Partition = S spreads the one
// population over S parallel event loops by DHT zone (the default is one
// loop, which replays every recorded single-loop run byte for byte);
// cross-shard datagrams merge at conservative epoch barriers in a fixed
// order, each loop carries its own fault engine, and the eclipse forger acts
// only at barriers, so churn, adversaries, faults and S all compose and stay
// byte-deterministic at any worker count.
// The "emergesim sweep" subcommand exposes the engine on the command line;
// a figure name (fig6a..fig8) runs that figure's preset (experiment.Presets).
//
// The mission hot path is tuned to run live scenarios as fast as the
// hardware allows: wire codecs are append-style over pooled buffers (the
// transports recycle delivery buffers; handlers clone what they keep),
// AES-GCM state is cached per key (seal.Sealer, onion.BuildSealers),
// Shamir splitting draws whole polynomial sets in one batch, and the
// simulator schedules per-message events without closures or timer
// handles. Simulation networks draw every sender-side cryptographic byte —
// mission IDs, keys, nonces, share polynomials — from a ChaCha8 stream
// derived from NetworkConfig.Seed, making a live run a pure function of
// its seed down to the ciphertexts; the real deployment, cmd/dhtnode, keeps
// crypto/rand. The CI work-count gates live in BENCH_scenario.json.
//
// Quick start:
//
//	net, _ := selfemerge.NewNetwork(selfemerge.NetworkConfig{Nodes: 200})
//	msg, _ := net.Send([]byte("attack at dawn"), 24*time.Hour,
//	    selfemerge.WithScheme(selfemerge.SchemeJoint))
//	net.RunUntil(msg.Release())       // advance simulated time
//	plaintext, at, ok := net.Emerged(msg)
package selfemerge
