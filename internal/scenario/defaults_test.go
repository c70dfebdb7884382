package scenario

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
)

// TestMethodsAnswerAsDefaulted: every exported Config method gives the same
// answer on a raw config as on its withDefaults form. A method that read a
// field withDefaults resolves without resolving it would describe another
// point than the one Measure runs: References once estimated a drop-attack
// point's delivery reference malicious-free, because Drop becomes
// StrategyDrop only in withDefaults. The raw configs leave each field
// withDefaults sets at zero in turn, and spell the drop attack both ways.
func TestMethodsAnswerAsDefaulted(t *testing.T) {
	var methods []string
	for typ, i := reflect.TypeOf(Config{}), 0; i < typ.NumMethod(); i++ {
		methods = append(methods, typ.Method(i).Name)
	}
	if covered := []string{"At", "References"}; !slices.Equal(methods, covered) {
		t.Fatalf("Config's exported methods are %v, this test covers %v", methods, covered)
	}

	joint := core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}
	share := core.Plan{Scheme: core.SchemeKeyShare, K: 2, L: 2, ShareN: 4, ShareM: []int{2}}
	full := Config{
		Nodes: 120, MaliciousRate: 0.1, Alpha: 1,
		Emerging: time.Hour, Missions: 30, Shards: 2, Stagger: time.Minute,
		MCTrials: 500, Plan: joint, Seed: 7,
		Live: experiment.Live{Strategy: adversary.StrategyDrop, Replicas: 1},
	}
	zeroed := map[string]func(*Config){
		"Nodes":    func(c *Config) { c.Nodes = 0 },
		"Emerging": func(c *Config) { c.Emerging = 0 },
		"Missions": func(c *Config) { c.Missions = 0 },
		"Shards":   func(c *Config) { c.Shards = 0 },
		"Stagger":  func(c *Config) { c.Stagger = 0 },
		"Replicas": func(c *Config) { c.Replicas = 0 },
		"MCTrials": func(c *Config) { c.MCTrials = 0 },
		"Strategy": func(c *Config) { c.Strategy, c.Drop = adversary.StrategySpy, true },
	}
	raws := map[string]Config{
		"all defaults": {Plan: joint},
		"Drop":         {MaliciousRate: 0.1, Alpha: 1, Drop: true, Plan: joint},
		"key share":    {MaliciousRate: 0.2, Alpha: 0.5, Drop: true, Plan: share},
		"spy":          {MaliciousRate: 0.1, Plan: joint},
		"eclipse":      {MaliciousRate: 0.1, Live: experiment.Live{Strategy: adversary.StrategyEclipse, Forge: 10}, Drop: true, Plan: joint},
	}
	for field, zero := range zeroed {
		raw := full
		zero(&raw)
		raws["no "+field] = raw
	}
	pt := experiment.Point{Scheme: core.SchemeJoint, K: 2, L: 3, P: 0.2, Alpha: 2, Network: 150, Seed: 5}

	for name, raw := range raws {
		def, err := raw.withDefaults()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rawRel, rawDel := raw.References()
		defRel, defDel := def.References()
		if rawRel.Key() != defRel.Key() || rawDel.Key() != defDel.Key() {
			t.Errorf("%s: References\n  raw       %s | %s\n  defaulted %s | %s",
				name, rawRel.Key(), rawDel.Key(), defRel.Key(), defDel.Key())
		}
		// At answers with a config of its own: compared in defaulted form.
		rawAt, err := raw.At(pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defAt, err := def.At(pt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rawAt, errRaw := rawAt.withDefaults()
		defAt, errDef := defAt.withDefaults()
		if errRaw != nil || errDef != nil || !reflect.DeepEqual(rawAt, defAt) {
			t.Errorf("%s: At\n  raw       %+v (%v)\n  defaulted %+v (%v)", name, rawAt, errRaw, defAt, errDef)
		}
	}

	// One attack, two spellings, one pair of references: under a dropping
	// strategy the delivery reference is the release reference.
	dropRel, dropDel := Config{MaliciousRate: 0.1, Drop: true, Plan: joint}.References()
	stratRel, stratDel := Config{MaliciousRate: 0.1, Plan: joint, Live: experiment.Live{Strategy: adversary.StrategyDrop}}.References()
	if dropRel.Key() != stratRel.Key() || dropDel.Key() != stratDel.Key() || dropDel.Key() != dropRel.Key() {
		t.Errorf("Drop references %s | %s, StrategyDrop references %s | %s",
			dropRel.Key(), dropDel.Key(), stratRel.Key(), stratDel.Key())
	}
}
