package scenario_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/scenario"
)

// jointPlan is the small shape most engine tests drive.
var jointPlan = core.Plan{Scheme: core.SchemeJoint, K: 2, L: 2}

func TestScenarioDeterministic(t *testing.T) {
	cfg := scenario.Config{
		Nodes:         120,
		MaliciousRate: 0.2,
		Alpha:         1,
		Missions:      30,
		Plan:          jointPlan,
		MCTrials:      40,
		Seed:          11,
		Live:          experiment.Live{Strategy: adversary.StrategyDrop},
	}
	a, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scenario.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Live != b.Live {
		t.Errorf("live outcomes differ across identical runs: %+v vs %+v", a.Live, b.Live)
	}
	if a.Deaths != b.Deaths || a.Joins != b.Joins {
		t.Errorf("churn trajectories differ: %d/%d vs %d/%d deaths/joins",
			a.Deaths, a.Joins, b.Deaths, b.Joins)
	}
	if a.Sent != b.Sent || a.Recv != b.Recv || a.Dropped != b.Dropped {
		t.Errorf("fabric traffic differs: %d/%d/%d vs %d/%d/%d",
			a.Sent, a.Recv, a.Dropped, b.Sent, b.Recv, b.Dropped)
	}
}

func TestScenarioChurnKillsAndReplaces(t *testing.T) {
	report, err := scenario.Run(scenario.Config{
		Nodes:    120,
		Alpha:    1,
		Missions: 5,
		Plan:     jointPlan,
		MCTrials: 20,
		Seed:     12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Deaths == 0 {
		t.Fatal("alpha=1 churn produced no deaths")
	}
	if report.Joins != report.Deaths {
		t.Errorf("every death must be replaced: %d deaths, %d joins", report.Deaths, report.Joins)
	}
}

func TestScenarioCleanNetworkDeliversEverything(t *testing.T) {
	report, err := scenario.Run(scenario.Config{
		Nodes:    120,
		Missions: 30,
		Plan:     jointPlan,
		MCTrials: 20,
		Seed:     13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Live.Delivered != report.Live.Missions {
		t.Errorf("honest static network delivered %d/%d", report.Live.Delivered, report.Live.Missions)
	}
	if report.Live.Released != 0 {
		t.Errorf("honest network released %d missions early", report.Live.Released)
	}
	if report.Deaths != 0 {
		t.Errorf("alpha=0 produced %d deaths", report.Deaths)
	}
}

func TestScenarioFullCompromise(t *testing.T) {
	// Every non-infrastructure node is a Sybil. Spies harvest all key
	// material at start time (release-ahead succeeds on every mission) but
	// forward faithfully; droppers additionally swallow every package.
	for _, strategy := range []adversary.Strategy{adversary.StrategySpy, adversary.StrategyDrop} {
		report, err := scenario.Run(scenario.Config{
			Nodes:         150,
			MaliciousRate: 1,
			Missions:      20,
			Plan:          jointPlan,
			MCTrials:      20,
			Seed:          14,
			Live:          experiment.Live{Strategy: strategy},
		})
		if err != nil {
			t.Fatal(err)
		}
		// The three infrastructure nodes stay honest even at rate 1, and a
		// mission whose slot lands on one of them can survive; allow a few.
		if report.Live.Released < report.Live.Missions-4 {
			t.Errorf("%v: full compromise released only %d/%d", strategy, report.Live.Released, report.Live.Missions)
		}
		wantDelivered := report.Live.Missions
		if strategy.Drops() {
			wantDelivered = 0
		}
		if report.Live.Delivered != wantDelivered {
			t.Errorf("%v: delivered %d, want %d", strategy, report.Live.Delivered, wantDelivered)
		}
	}
}

// TestScenarioValidation: Setup refuses a bad config before it boots a
// network.
func TestScenarioValidation(t *testing.T) {
	bad := []scenario.Config{
		{Plan: jointPlan, Nodes: 5},
		{Plan: jointPlan, MaliciousRate: 1.5},
		{Plan: jointPlan, Alpha: -1},
		{Plan: jointPlan, Alpha: math.NaN()},
		{Plan: jointPlan, Missions: -1},
		{Plan: core.Plan{Scheme: core.SchemeJoint}}, // invalid shape
	}
	for i, cfg := range bad {
		if _, _, err := scenario.Setup(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestScenarioReportTable(t *testing.T) {
	report, err := scenario.Run(scenario.Config{
		Nodes:         120,
		MaliciousRate: 0.2,
		Alpha:         0.5,
		Missions:      10,
		Plan:          jointPlan,
		MCTrials:      20,
		Seed:          15,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := report.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"scenario joint", "live (10 missions)", "monte-carlo", "agreement"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioEmergingPeriodScalesChurn(t *testing.T) {
	// Only alpha should matter, not the absolute emerging period: a 30m
	// period at alpha=1 must see roughly the same death count as a 2h one.
	short, err := scenario.Run(scenario.Config{
		Nodes:    120,
		Alpha:    1,
		Emerging: 30 * time.Minute,
		Missions: 5,
		Plan:     jointPlan,
		MCTrials: 20,
		Seed:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if short.Deaths == 0 {
		t.Fatal("short emerging period at alpha=1 saw no churn")
	}
}
