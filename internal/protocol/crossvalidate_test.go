package protocol_test

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/mc"
	"selfemerge/internal/protocol"
	"selfemerge/internal/sim"
	"selfemerge/internal/stats"
	"selfemerge/internal/transport"
	"selfemerge/internal/transport/simnet"
)

// protocolTrial runs one full-protocol emergence attempt in a fresh simnet
// cluster with the given malicious marking and reports (releasedEarly,
// delivered). It is the executable counterpart of one mc.RunTrial.
func protocolTrial(t *testing.T, seed uint64, nodes int, malicious []bool, plan core.Plan, drop bool) (bool, bool) {
	t.Helper()
	s := sim.NewSimulator()
	net := simnet.New(s, simnet.Config{BaseLatency: time.Millisecond, Seed: seed})
	collector := adversary.NewCollector()
	rng := stats.NewRNG(seed)

	var mu sync.Mutex
	var deliveredAt time.Time
	var delivered bool

	cluster := make([]*dht.Node, 0, nodes)
	for i := 0; i < nodes; i++ {
		ep := net.Endpoint(transport.Addr(fmt.Sprintf("n%d", i)))
		host, err := protocol.NewHost(protocol.HostConfig{
			Malicious: malicious[i],
			Drop:      drop && malicious[i],
			Reporter:  collector,
			OnSecret: func(_ protocol.MissionID, _ []byte) {
				mu.Lock()
				if !delivered {
					delivered = true
					deliveredAt = s.Now()
				}
				mu.Unlock()
			},
		}, dht.Config{
			ID:       dht.RandomID(rng),
			Endpoint: ep,
			Clock:    s,
		})
		if err != nil {
			t.Fatal(err)
		}
		cluster = append(cluster, host.Node())
	}
	boot := []dht.Contact{cluster[0].Contact()}
	for _, n := range cluster[1:] {
		n.Bootstrap(boot, nil)
	}
	s.Run()

	// Fully deterministic mission ID per trial: slot placement (and with it
	// the sampled rates) must be identical across runs.
	var id protocol.MissionID
	for b := 0; b < 8; b++ {
		id[b] = byte(seed >> (8 * b))
		id[8+b] = byte(seed>>(8*b)) ^ 0x5A
	}
	m := protocol.Mission{
		ID:       id,
		Plan:     plan,
		Secret:   []byte("xv"),
		Receiver: cluster[1].ID(),
		Start:    s.Now(),
		Release:  s.Now().Add(time.Duration(plan.L) * time.Hour),
	}
	if _, err := protocol.Dispatch(cluster[2], m); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(m.Release.Add(time.Minute))
	s.Run()

	releasedEarly := false
	if at, ok := collector.Recovered(m.ID); ok && at.Before(m.Release) {
		releasedEarly = true
	}
	mu.Lock()
	defer mu.Unlock()
	return releasedEarly, delivered && !deliveredAt.Before(m.Release)
}

// TestProtocolMatchesMonteCarloJoint cross-validates the full protocol
// simulation against the Monte Carlo engine that generates the figures: for
// the joint scheme at p = 0.5 in a small cluster, both must produce
// statistically compatible release and delivery rates.
//
// The comparison deliberately uses per-node Bernoulli marking (matching the
// MC's sampler at large population) and a cluster small enough that
// slot-to-node collisions are the dominant divergence; tolerances reflect
// that.
func TestProtocolMatchesMonteCarloJoint(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	const (
		nodes  = 40
		trials = 60
		p      = 0.5
	)
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}

	released, delivered := 0, 0
	rng := stats.NewRNG(77)
	for trial := 0; trial < trials; trial++ {
		// Nodes 0-2 are bootstrap, receiver and dispatcher: the MC model
		// (like the paper's) assumes honest endpoints, so exempt them.
		malicious := make([]bool, nodes)
		for i := 3; i < nodes; i++ {
			malicious[i] = rng.Bool(p)
		}
		rel, del := protocolTrial(t, uint64(trial)+1000, nodes, malicious, plan, false)
		if rel {
			released++
		}
		if del {
			delivered++
		}
	}
	relRate := float64(released) / trials
	delRate := float64(delivered) / trials

	// MC reference at huge population (Bernoulli regime). The protocol
	// delivers every packet to holderReplicas = 2 nodes, so a slot is
	// exposed when either replica is malicious: effective rate
	// p' = 1-(1-p)^2.
	pEff := 1 - (1-p)*(1-p)
	ref, err := mc.Estimate(plan, mc.Env{Population: 1000000, Malicious: int(pEff * 1000000)},
		mc.Options{Trials: 200000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantRel := 1 - ref.Rr()

	// Generous bound: 60 protocol trials have sigma ~ 0.065, and multiple
	// slots can share one physical node in a 40-node cluster, which
	// correlates columns and shifts the rate toward compromise.
	if math.Abs(relRate-wantRel) > 0.25 {
		t.Errorf("release rate: protocol %.3f vs MC %.3f", relRate, wantRel)
	}
	// Spying holders forward faithfully, so delivery must be perfect; the
	// MC's Rd models the drop attack, compared in the dedicated test below.
	if delRate != 1 {
		t.Errorf("delivery rate under spy-only adversary = %.3f, want 1.0", delRate)
	}
	t.Logf("joint k=2 l=2 p=0.5: protocol released=%.3f delivered=%.3f; MC released=%.3f",
		relRate, delRate, wantRel)
}

// TestProtocolDropMatchesMonteCarlo does the same comparison for the drop
// attack: malicious holders discard packages.
func TestProtocolDropMatchesMonteCarlo(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	const (
		nodes  = 40
		trials = 60
		p      = 0.3
	)
	plan := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}

	delivered := 0
	rng := stats.NewRNG(88)
	for trial := 0; trial < trials; trial++ {
		// Exempt bootstrap/receiver/dispatcher, as in the MC model.
		malicious := make([]bool, nodes)
		for i := 3; i < nodes; i++ {
			malicious[i] = rng.Bool(p)
		}
		_, del := protocolTrial(t, uint64(trial)+5000, nodes, malicious, plan, true)
		if del {
			delivered++
		}
	}
	delRate := float64(delivered) / trials

	ref, err := mc.Estimate(plan, mc.Env{Population: 1000000, Malicious: 300000},
		mc.Options{Trials: 200000, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(delRate-ref.Rd()) > 0.25 {
		t.Errorf("drop delivery rate: protocol %.3f vs MC %.3f", delRate, ref.Rd())
	}
	t.Logf("drop attack k=2 l=2 p=0.3: protocol delivered=%.3f; MC Rd=%.3f", delRate, ref.Rd())
}
