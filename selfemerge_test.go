package selfemerge

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"

	"selfemerge/internal/core"
	"selfemerge/internal/stats"
)

func TestQuickstartFlow(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("see you in the future"), 4*time.Hour,
		WithScheme(SchemeJoint), WithThreatModel(0.1))
	if err != nil {
		t.Fatal(err)
	}
	// Before release: nothing.
	net.RunUntil(msg.Release().Add(-time.Minute))
	if _, _, ok := net.Emerged(msg); ok {
		t.Fatal("message emerged before release time")
	}
	// After release: plaintext comes back.
	net.RunUntil(msg.Release().Add(time.Minute))
	net.Settle()
	plain, at, ok := net.Emerged(msg)
	if !ok {
		t.Fatal("message never emerged")
	}
	if !bytes.Equal(plain, []byte("see you in the future")) {
		t.Fatalf("plaintext = %q", plain)
	}
	if at.Before(msg.Release()) {
		t.Fatalf("emerged at %v before release %v", at, msg.Release())
	}
}

func TestAllSchemesEmerge(t *testing.T) {
	for _, scheme := range []Scheme{SchemeCentral, SchemeDisjoint, SchemeJoint, SchemeKeyShare} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			net, err := NewNetwork(NetworkConfig{Nodes: 80, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			msg, err := net.Send([]byte("payload"), 6*time.Hour,
				WithScheme(scheme), WithThreatModel(0.1), WithNodeBudget(40))
			if err != nil {
				t.Fatal(err)
			}
			net.RunUntil(msg.Release().Add(5 * time.Minute))
			net.Settle()
			plain, _, ok := net.Emerged(msg)
			if !ok {
				t.Fatalf("%v never emerged", scheme)
			}
			if string(plain) != "payload" {
				t.Fatalf("plaintext = %q", plain)
			}
		})
	}
}

func TestFullCompromiseIsReleaseAhead(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 50, MaliciousRate: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("sensitive"), 10*time.Hour, WithScheme(SchemeJoint))
	if err != nil {
		t.Fatal(err)
	}
	net.RunFor(time.Hour) // well before release
	at, ok := net.AdversaryRecovered(msg)
	if !ok {
		t.Fatal("total compromise did not recover the key")
	}
	if !at.Before(msg.Release()) {
		t.Fatal("recovery not ahead of release")
	}
	if !net.AdversaryDecrypts(msg) {
		t.Fatal("adversary key does not decrypt the cloud object")
	}
}

func TestDropAttackPreventsEmergence(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 50, MaliciousRate: 1, Attack: AttackDrop, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("doomed"), 2*time.Hour, WithScheme(SchemeJoint))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(time.Hour))
	net.Settle()
	if _, _, ok := net.Emerged(msg); ok {
		t.Fatal("message emerged through a total drop attack")
	}
}

func TestEclipsePoisoningNaiveVsPingEvict(t *testing.T) {
	// Same seed, same flood, only the bucket admission policy differs. The
	// naive table stale-evicts quiet live peers for forged newcomers; the
	// ping-evict table probes the resident first and keeps it when it
	// answers, so live routing state survives the flood.
	audit := func(policy TablePolicy) (live, poisoned int, forged uint64) {
		net, err := NewNetwork(NetworkConfig{
			Nodes:         80,
			MaliciousRate: 0.2,
			Attack:        AttackEclipse,
			ForgeRate:     60,
			Table:         policy,
			Seed:          99,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Run well past the staleness threshold so naive tables consider
		// their quiet residents evictable.
		net.RunFor(90 * time.Minute)
		live, poisoned = net.RouteAudit()
		return live, poisoned, net.ForgedContacts()
	}
	naiveLive, naivePoisoned, naiveForged := audit(TableNaive)
	evictLive, _, evictForged := audit(TablePingEvict)
	if naiveForged == 0 || evictForged == 0 {
		t.Fatalf("forger idle: %d/%d forged contacts", naiveForged, evictForged)
	}
	if naivePoisoned == 0 {
		t.Fatal("flood poisoned no naive-table entries")
	}
	if evictLive <= naiveLive {
		t.Errorf("ping-evict kept %d live routes, naive kept %d; expected the defended tables to retain more", evictLive, naiveLive)
	}
	t.Logf("live routes: naive %d (poisoned %d), pingevict %d; forged %d", naiveLive, naivePoisoned, evictLive, naiveForged)
}

func TestEclipsePingEvictStillEmerges(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{
		Nodes:         80,
		MaliciousRate: 0.1,
		Attack:        AttackEclipse,
		ForgeRate:     60,
		Table:         TablePingEvict,
		Seed:          23,
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("through the flood"), 3*time.Hour,
		WithScheme(SchemeJoint), WithThreatModel(0.1))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(10 * time.Minute))
	net.Settle()
	if _, _, ok := net.Emerged(msg); !ok {
		t.Fatal("message lost under an eclipse flood despite ping-evict tables")
	}
	if net.ForgedContacts() == 0 {
		t.Fatal("forger emitted nothing; the run measured no attack")
	}
}

func TestNoAdversaryNothingRecovered(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("clean"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(time.Minute))
	net.Settle()
	if _, ok := net.AdversaryRecovered(msg); ok {
		t.Fatal("adversary recovered a key with zero malicious nodes")
	}
	if net.AdversaryDecrypts(msg) {
		t.Fatal("adversary decrypts with zero malicious nodes")
	}
}

func TestChurnNetworkStillServes(t *testing.T) {
	// Mild churn relative to the emerging period: the joint scheme should
	// still deliver with high probability at this scale; we fix the seed so
	// the test is deterministic.
	net, err := NewNetwork(NetworkConfig{Nodes: 120, MeanLifetime: 200 * time.Hour, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("survives churn"), 2*time.Hour, WithScheme(SchemeJoint))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(10 * time.Minute))
	net.Settle()
	if _, _, ok := net.Emerged(msg); !ok {
		t.Fatal("message lost under mild churn")
	}
}

func TestChurnReplacementKeepsPopulationServing(t *testing.T) {
	// Heavy churn with replacement and protocol repair: dead holders are
	// re-filled and re-granted their layer keys, so the joint scheme still
	// delivers. Without Replace+Repair this configuration routinely loses
	// missions.
	net, err := NewNetwork(NetworkConfig{
		Nodes:        120,
		MeanLifetime: 8 * time.Hour,
		Replace:      true,
		Repair:       true,
		Seed:         16,
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("replaced but alive"), 4*time.Hour,
		WithScheme(SchemeJoint), WithThreatModel(0.05))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(10 * time.Minute))
	net.Settle()
	if _, _, ok := net.Emerged(msg); !ok {
		t.Fatal("message lost despite churn replacement and repair")
	}
	deaths, joins := net.ChurnEvents()
	if deaths == 0 {
		t.Fatal("churn configuration produced no deaths")
	}
	if joins != deaths {
		t.Fatalf("%d deaths but %d joins", deaths, joins)
	}
}

func TestTransientFlappingStillServes(t *testing.T) {
	// Endpoints flap up/down at the transport layer (the flap profile's
	// crash-restart windows) but nodes never die; the fabric drops traffic
	// to down endpoints, and the joint scheme's redundancy still delivers.
	net, err := NewNetwork(NetworkConfig{
		Nodes:         100,
		Fault:         FaultFlap,
		FaultSeverity: 0.5,
		Seed:          17,
	})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("up and down"), 4*time.Hour, WithScheme(SchemeJoint))
	if err != nil {
		t.Fatal(err)
	}
	net.RunUntil(msg.Release().Add(10 * time.Minute))
	net.Settle()
	if _, _, ok := net.Emerged(msg); !ok {
		t.Fatal("message lost under transient flapping")
	}
	_, _, dropped := net.FabricStats()
	if dropped == 0 {
		t.Fatal("flapping endpoints dropped no traffic")
	}
}

func TestSendValidation(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Send(nil, time.Hour); err == nil {
		t.Error("empty message accepted")
	}
	if _, err := net.Send([]byte("x"), 0); err == nil {
		t.Error("zero emerging period accepted")
	}
	if _, err := net.Send([]byte("x"), time.Hour, WithScheme(Scheme(9))); err == nil {
		t.Error("bogus scheme accepted")
	}
	// A plan Dispatch refuses is refused before the payload is sealed and
	// uploaded: no failed Send above may leave an object behind.
	if _, err := net.Send([]byte("x"), time.Hour, WithPlan(core.Plan{Scheme: core.SchemeJoint})); err == nil {
		t.Error("shapeless joint plan accepted")
	}
	if got := net.Cloud().Len(); got != 0 {
		t.Errorf("failed Sends left %d cloud objects", got)
	}
}

// TestPayloadBytesPerMission is the payload-ownership count: one complete
// 1 MiB mission — seal, upload, route, emerge, decrypt, delete — may allocate
// the ciphertext the cloud keeps and the plaintext the caller gets, and no
// third copy of the payload. Everything else the second mission of a
// network allocates (onions, packets, lookups: ~90 KiB) fits the 128 KiB
// allowance; the first also fills freelists, so it runs unmeasured.
// TotalAlloc only grows, so collections during the cycle do not disturb the
// reading.
func TestPayloadBytesPerMission(t *testing.T) {
	const payloadSize = 1 << 20
	net, err := NewNetwork(NetworkConfig{Nodes: 60, Seed: 11, Retry: 3})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, payloadSize)
	if _, err := stats.NewByteStream(11).Read(payload); err != nil {
		t.Fatal(err)
	}
	missionCycle(t, net, payload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	missionCycle(t, net, payload)
	runtime.ReadMemStats(&after)
	grew := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(2*payloadSize + 128<<10); grew > limit {
		t.Errorf("one 1 MiB mission allocated %d bytes (%.2f payloads), limit %d: a payload copy is back",
			grew, float64(grew)/payloadSize, limit)
	}
	if net.Cloud().Len() != 0 {
		t.Errorf("cloud holds %d objects after Delete", net.Cloud().Len())
	}
}

// TestNetworkValidation: Validate is the one check of a network's settings,
// and NewNetwork refuses exactly what it refuses.
func TestNetworkValidation(t *testing.T) {
	bad := map[string]NetworkConfig{
		"2-node network":                 {Nodes: 2},
		"malicious rate 1.5":             {MaliciousRate: 1.5},
		"malicious rate NaN":             {MaliciousRate: math.NaN()},
		"forge rate without the eclipse": {Nodes: 10, ForgeRate: 5},
		"negative forge rate":            {Nodes: 10, Attack: AttackEclipse, ForgeRate: -1},
		"negative replica count":         {Replicas: -1},
		"negative partition count":       {Partition: -1},
		"fault severity 1.5":             {Fault: FaultBurst, FaultSeverity: 1.5},
		"negative retry attempts":        {Retry: -1},
		"negative fault severity":        {FaultSeverity: -0.1},
	}
	for name, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("Validate accepted a %s", name)
		}
		if _, err := NewNetwork(cfg); err == nil {
			t.Errorf("NewNetwork accepted a %s", name)
		}
	}
	if err := (NetworkConfig{}).Validate(); err != nil {
		t.Errorf("the zero config (every default) refused: %v", err)
	}
}

func TestMessageAccessors(t *testing.T) {
	net, err := NewNetwork(NetworkConfig{Nodes: 40, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	msg, err := net.Send([]byte("x"), time.Hour, WithScheme(SchemeDisjoint), WithThreatModel(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if msg.Plan().Scheme != SchemeDisjoint {
		t.Errorf("Plan().Scheme = %v", msg.Plan().Scheme)
	}
	if msg.CloudObject() == "" {
		t.Error("no cloud object")
	}
	if msg.Release().Before(net.Now()) {
		t.Error("release in the past")
	}
	if net.Nodes() != 40 {
		t.Errorf("Nodes = %d", net.Nodes())
	}
	if net.Cloud().Len() != 1 {
		t.Errorf("cloud holds %d objects", net.Cloud().Len())
	}
}
