package selfemerge

import (
	"fmt"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/crypto/seal"
	"selfemerge/internal/protocol"
)

// SendOption customizes Send.
type SendOption func(*sendConfig)

type sendConfig struct {
	scheme        Scheme
	maliciousRate float64
	plan          *core.Plan
	missionID     *protocol.MissionID
}

// WithScheme selects the routing scheme (default SchemeJoint).
func WithScheme(s Scheme) SendOption {
	return func(c *sendConfig) { c.scheme = s }
}

// WithThreatModel tells the planner what fraction of DHT nodes to assume
// compromised when sizing the path structure (default 0.2).
func WithThreatModel(maliciousRate float64) SendOption {
	return func(c *sendConfig) { c.maliciousRate = maliciousRate }
}

// WithPlan bypasses the planner entirely (advanced use and tests).
func WithPlan(plan core.Plan) SendOption {
	return func(c *sendConfig) { c.plan = &plan }
}

// WithMissionID fixes the mission identifier instead of drawing a random
// one. The identifier determines the pseudo-random holder slot placement,
// so scenario runs use it to make whole missions reproducible under a seed.
func WithMissionID(id protocol.MissionID) SendOption {
	return func(c *sendConfig) { c.missionID = &id }
}

// Message is a dispatched self-emerging message: the handle the receiver
// uses to await emergence.
type Message struct {
	mission     protocol.Mission
	cloudObject string
}

// Start returns the dispatch time ts.
func (m *Message) Start() time.Time { return m.mission.Start }

// Release returns the release time tr.
func (m *Message) Release() time.Time { return m.mission.Release }

// MissionID returns the mission identifier.
func (m *Message) MissionID() protocol.MissionID { return m.mission.ID }

// Plan returns the routing plan protecting the message's key.
func (m *Message) Plan() core.Plan { return m.mission.Plan }

// CloudObject names the ciphertext object in the cloud store.
func (m *Message) CloudObject() string { return m.cloudObject }

// Send protects plaintext as self-emerging data: it plans a routing scheme
// sized for the emerging period, seals the plaintext under a fresh key,
// dispatches the key into the DHT and uploads the ciphertext to the cloud.
// The key re-emerges at Now()+emerging. A Send that returns an error has
// stored nothing.
func (n *Network) Send(plaintext []byte, emerging time.Duration, opts ...SendOption) (*Message, error) {
	if len(plaintext) == 0 {
		return nil, fmt.Errorf("selfemerge: empty message")
	}
	if emerging <= 0 {
		return nil, fmt.Errorf("selfemerge: emerging period must be positive")
	}
	cfg := sendConfig{scheme: SchemeJoint, maliciousRate: 0.2}
	for _, opt := range opts {
		opt(&cfg)
	}

	plan, err := n.planFor(cfg, emerging)
	if err != nil {
		return nil, err
	}
	// Checked here, before the payload is sealed: a plan Dispatch would
	// refuse must cost neither the seal nor a cloud object.
	if err := plan.Validate(); err != nil {
		return nil, err
	}

	key, err := seal.NewKeyFrom(n.cryptoSrc)
	if err != nil {
		return nil, err
	}
	sealer, err := seal.NewSealerRand(key, n.cryptoSrc)
	if err != nil {
		return nil, err
	}
	ciphertext, err := sealer.Encrypt(plaintext, nil)
	if err != nil {
		return nil, err
	}

	var missionID protocol.MissionID
	if cfg.missionID != nil {
		missionID = *cfg.missionID
	} else {
		missionID, err = n.sender.NewMissionID()
		if err != nil {
			return nil, err
		}
	}

	mission := protocol.Mission{
		ID:       missionID,
		Plan:     plan,
		Secret:   key.Bytes(),
		Receiver: n.receiver.ID(),
		Start:    n.Now(),
		Release:  n.Now().Add(emerging),
		Replicas: n.cfg.Replicas,
	}
	// Dispatch from a node that is neither the bootstrap nor the receiver,
	// through the network's sender (and so its randomness source).
	if _, err := n.sender.Dispatch(n.nodes[2].Node(), mission); err != nil {
		return nil, err
	}
	// Uploaded only once the key is on its way, so a failed Send leaves
	// nothing behind. The store adopts the sealed buffer: from here the
	// ciphertext is the cloud's and nobody writes it.
	object := fmt.Sprintf("msg-%x", missionID[:8])
	n.cloudSt.Adopt(object, ciphertext)
	return &Message{mission: mission, cloudObject: object}, nil
}

// planFor is the mission's plan: the caller's, or the planner's through
// core.PlanSpec within a budget of the whole population, which refuses a
// threat model outside [0, 1] before any closed form runs. The key share
// planner sizes for churn of severity emerging/lifetime, and for 1 without
// churn, where its thresholds stay mild.
func (n *Network) planFor(cfg sendConfig, emerging time.Duration) (core.Plan, error) {
	if cfg.plan != nil {
		return *cfg.plan, nil
	}
	alpha := 1.0
	if n.cfg.MeanLifetime > 0 {
		alpha = float64(emerging) / float64(n.cfg.MeanLifetime)
	}
	return core.PlanSpec{Scheme: cfg.scheme, P: cfg.maliciousRate, Alpha: alpha, Budget: n.cfg.Nodes}.Plan()
}

// Emerged reports whether the message's key has emerged, and if so decrypts
// the cloud ciphertext where the store keeps it: the receiver workflow of
// Figure 1. The plaintext is the caller's; the returned time is when the key
// reached the receiver.
func (n *Network) Emerged(m *Message) (plaintext []byte, at time.Time, ok bool) {
	d, found := n.deliveries[m.mission.ID]
	if !found {
		return nil, time.Time{}, false
	}
	key, err := seal.KeyFromBytes(d.secret)
	if err != nil {
		return nil, time.Time{}, false
	}
	ciphertext, err := n.cloudSt.View(m.cloudObject, "receiver")
	if err != nil {
		return nil, time.Time{}, false
	}
	plain, err := seal.Decrypt(key, ciphertext, nil)
	if err != nil {
		return nil, time.Time{}, false
	}
	return plain, d.at, true
}

// AdversaryRecovered reports whether (and when) the Sybil adversary
// reconstructed the message key — before the release time this is a
// successful release-ahead attack.
func (n *Network) AdversaryRecovered(m *Message) (time.Time, bool) {
	return n.collector.Recovered(m.mission.ID)
}

// AdversaryDecrypts reports whether the adversary can actually read the
// message right now: it tries the reconstructed key against the cloud
// ciphertext.
func (n *Network) AdversaryDecrypts(m *Message) bool {
	secret, ok := n.collector.Secret(m.mission.ID)
	if !ok {
		return false
	}
	key, err := seal.KeyFromBytes(secret)
	if err != nil {
		return false
	}
	ciphertext, err := n.cloudSt.View(m.cloudObject, "adversary")
	if err != nil {
		return false
	}
	_, err = seal.Decrypt(key, ciphertext, nil)
	return err == nil
}
