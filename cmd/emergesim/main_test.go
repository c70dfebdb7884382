package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"selfemerge/internal/experiment"
	"selfemerge/internal/testutil"
)

// emergesim runs one command line in-process through the real flag sets.
func emergesim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errs bytes.Buffer
	code = run(args, &out, &errs)
	return out.String(), errs.String(), code
}

// mustRun is emergesim for command lines that have to succeed.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	stdout, stderr, code := emergesim(t, args...)
	if code != 0 {
		t.Fatalf("emergesim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

var wallClock = regexp.MustCompile(`wall \S+\n`)

// The CI sweep-smoke grids (.github/workflows/ci.yml), minus -format.
const (
	smokeLive      = "sweep -estimator live -axis p=0:0.2:0.1 -axis scheme=joint,share -nodes 50 -missions 20 -shards 2 -alpha 1 -strategy drop -k 2 -l 2 -sharen 4 -sharem 2 -emerging 1h"
	smokePartition = "sweep -estimator live -axis p=0:0.2:0.1 -axis scheme=joint,share -nodes 50 -missions 20 -partition 2 -alpha 1 -strategy drop -k 2 -l 2 -sharen 4 -sharem 2 -emerging 1h"
	smokeFault     = "sweep -estimator live -axis faultsev=0.3:0.6:0.3 -axis fault=burst,partition -axis retry=0,3 -axis partition=1,2 -nodes 50 -missions 10 -alpha 1 -strategy drop -k 2 -l 2 -emerging 1h"
	smokeEclipse   = "sweep -estimator live -strategy eclipse -axis forge=0:30:30 -axis table=naive,pingevict -axis partition=1,2 -nodes 50 -missions 10 -alpha 1 -k 2 -l 2 -emerging 1h"
)

// TestGoldens is the must-not-move oracle of the command line: every file
// under testdata pins the bytes of one command line, so a refactor of the
// flag, axis or overlay plumbing that changes one emitted byte fails here.
// Regenerate the files (go test ./cmd/emergesim -update) only in a change
// whose point is to change that output. -update only adds columns, fields and
// tokens; a file whose old values move must be deleted first.
func TestGoldens(t *testing.T) {
	cases := []struct{ file, args string }{
		{"live.csv", smokeLive + " -format csv"},
		{"live.json", smokeLive + " -format json"},
		{"partition.csv", smokePartition + " -format csv"},
		{"partition.json", smokePartition + " -format json"},
		{"fault.csv", smokeFault + " -format csv"},
		{"fault.json", smokeFault + " -format json"},
		{"eclipse.csv", smokeEclipse + " -format csv"},
		{"eclipse.json", smokeEclipse + " -format json"},
		{"dropaxis.csv", "sweep -estimator live -axis p=0:0.2:0.1 -axis strategy=spy,drop -nodes 50 -missions 10 -alpha 1 -k 2 -l 2 -emerging 1h -format csv"},
		{"mc.csv", "sweep -estimator mc -axis p=0:0.4:0.1 -axis scheme=central,disjoint,joint,share -axis alpha=0,2 -nodes 1000 -k 0 -l 0 -trials 200 -share-model quota -format csv"},
		{"analytic.json", "sweep -estimator analytic -axis p=0:0.4:0.1 -axis scheme=central,disjoint,joint -axis network=100,10000 -k 0 -l 0 -format json"},
		{"fig8.csv", "fig8 -trials 50 -step 0.25 -format csv"},
		{"scenario_drop.txt", "scenario -nodes 60 -p 0.1 -alpha 1 -strategy drop -k 2 -l 2 -missions 20 -mc-trials 100 -seed 6 -emerging 1h"},
		{"scenario_fault.txt", "scenario -nodes 60 -p 0.2 -alpha 1 -scheme share -k 2 -l 2 -sharen 4 -sharem 2 -missions 12 -shards 2 -partition 2 -fault burst -faultsev 0.3 -retry 3 -replicas 1 -emerging 1h"},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			got := wallClock.ReplaceAllString(mustRun(t, strings.Fields(tc.args)...), "wall -\n")
			testutil.Golden(t, tc.file, []byte(got))
		})
	}
}

// rowSamples gives every table row a non-default value and the other flags
// that value needs to be a valid live point.
var rowSamples = map[string]struct{ value, needs string }{
	"scheme":    {"disjoint", ""},
	"p":         {"0.2", ""},
	"alpha":     {"2", ""},
	"network":   {"40", ""},
	"budget":    {"20", "-k 0 -l 0"},
	"k":         {"3", ""},
	"l":         {"3", ""},
	"sharen":    {"3", "-scheme share -sharem 2"},
	"replicas":  {"2", ""},
	"strategy":  {"drop", ""},
	"forge":     {"6", "-strategy eclipse"},
	"table":     {"pingevict", ""},
	"partition": {"2", ""},
	"fault":     {"burst", "-faultsev 0.4"},
	"faultsev":  {"0.4", "-fault burst"},
	"retry":     {"2", ""},
}

// measured strips a sweep CSV to what the points measured: the index, series
// and x columns carry the axis layout, which differs between spelling a value
// as an axis and as a base flag.
func measured(csv string) string {
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(csv), "\n") {
		rows = append(rows, strings.SplitN(line, ",", 4)[3])
	}
	return strings.Join(rows, "\n")
}

// TestEveryRowBindsOnEveryPath: each row of the parameter table reaches the
// same live point as `sweep -axis name=v` and as `sweep -name v`, is accepted
// by `scenario -name v`, and is listed by both subcommands' -h — a row that
// binds on one path and not another fails here.
func TestEveryRowBindsOnEveryPath(t *testing.T) {
	_, sweepHelp, code := emergesim(t, "sweep", "-h")
	if code != 0 || !strings.Contains(sweepHelp, experiment.AxisNames()) {
		t.Errorf("sweep -h (exit %d) does not list the axis vocabulary %q:\n%s", code, experiment.AxisNames(), sweepHelp)
	}
	_, scenarioHelp, code := emergesim(t, "scenario", "-h")
	if code != 0 {
		t.Errorf("scenario -h: exit %d", code)
	}
	const small = "-nodes 30 -missions 2 -emerging 30m -k 2 -l 2 -mc-trials 10"
	for _, pa := range experiment.Params {
		sample, ok := rowSamples[pa.Name]
		if !ok {
			t.Errorf("table row %q has no sample in rowSamples", pa.Name)
			continue
		}
		for name, help := range map[string]string{"sweep": sweepHelp, "scenario": scenarioHelp} {
			if !strings.Contains(help, "\n  -"+pa.Flag()+" ") && !strings.Contains(help, "\n  -"+pa.Flag()+"\n") {
				t.Errorf("%s -h does not list -%s", name, pa.Flag())
			}
		}
		x := "p=0.1"
		if pa.Name == "p" {
			x = "alpha=1"
		}
		common := strings.Fields("sweep -estimator live -format csv " + small + " " + sample.needs + " -axis " + x)
		asAxis := mustRun(t, append(common, "-axis", pa.Name+"="+sample.value)...)
		asFlag := mustRun(t, append(common, "-"+pa.Flag()+"="+sample.value)...)
		if measured(asAxis) != measured(asFlag) {
			t.Errorf("%s=%s measures differently as an axis and as a flag:\n%s\nvs:\n%s", pa.Name, sample.value, asAxis, asFlag)
		}
		if pa.Alias != "" {
			if aliased := mustRun(t, append(common, "-axis", pa.Alias+"="+sample.value)...); aliased != asAxis {
				t.Errorf("axis alias %s differs from %s:\n%s\nvs:\n%s", pa.Alias, pa.Name, aliased, asAxis)
			}
		}
		mustRun(t, strings.Fields("scenario "+small+" "+sample.needs+" -"+pa.Flag()+"="+sample.value)...)
	}
}

// TestEstimatorsRefuseWhatTheyIgnore: an explicitly set flag or an axis the
// chosen estimator does not read is a usage error, never a silently
// mislabelled measurement.
func TestEstimatorsRefuseWhatTheyIgnore(t *testing.T) {
	refused := func(want string, args string) {
		t.Helper()
		stdout, stderr, code := emergesim(t, strings.Fields(args)...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, want) {
			t.Errorf("emergesim %s: exit %d, stdout %q, stderr %q; want exit 2 and %q", args, code, stdout, stderr, want)
		}
	}
	for _, est := range []string{"analytic", "mc"} {
		for _, pa := range experiment.Params {
			if !pa.LiveOnly {
				continue
			}
			value := rowSamples[pa.Name].value
			refused("-"+pa.Flag()+" does not apply to the "+est+" estimator",
				"sweep -estimator "+est+" -axis p=0:0.2:0.1 -"+pa.Flag()+"="+value)
			refused("the "+pa.Name+" axis applies to the live estimator only",
				"sweep -estimator "+est+" -axis p=0:0.2:0.1 -axis "+pa.Name+"="+value)
		}
		for _, flag := range []string{"-missions 5", "-shards 2", "-emerging 1h", "-mc-trials 5", "-loopstats"} {
			name, _, _ := strings.Cut(flag, " ")
			refused(name+" does not apply to the "+est+" estimator", "sweep -estimator "+est+" -axis p=0:0.2:0.1 "+flag)
		}
	}
	refused("-trials does not apply to the analytic estimator", "sweep -estimator analytic -axis p=0:0.2:0.1 -trials 5")
	refused("-share-model does not apply to the analytic estimator", "sweep -estimator analytic -axis p=0:0.2:0.1 -share-model quota")
	refused("-trials does not apply to the live estimator", "sweep -estimator live -axis p=0:0.2:0.1 -trials 5")
	// The sweeps that used to exit 0 with byte-identical series under
	// distinct labels.
	refused("the faultsev axis applies to the live estimator only", "sweep -estimator mc -axis p=0:0.2:0.1 -axis faultsev=0.3,0.6")
	refused("the fault axis applies to the live estimator only", "sweep -estimator mc -axis p=0:0.2:0.1 -axis fault=burst,flap")
	refused("the retry axis applies to the live estimator only", "sweep -estimator analytic -axis p=0:0.2:0.1 -axis retry=0,1")
	// The live estimator crosses a severity axis with the none profile (and
	// a profile axis with zero severity) as no-op points.
	mustRun(t, strings.Fields("sweep -estimator live -axis faultsev=0,0.4 -axis fault=none,burst -nodes 30 -missions 2 -emerging 30m -k 2 -l 2")...)
	// A forge rate the network would ignore: the live estimator refuses it at
	// pre-flight, through the network's own validator.
	refused("a forge rate requires the eclipse attack", "sweep -estimator live -axis p=0:0.2:0.1 -forge 10 -nodes 30 -missions 2 -k 2 -l 2")
	refused("a forge rate requires the eclipse attack", "sweep -estimator live -axis forge=0,10 -nodes 30 -missions 2 -k 2 -l 2")
}

// TestScenarioNamesItsAdversary: the report header names everything that
// changes what the point samples — the strategy that ran, its forge rate and
// table policy, and the event-loop partition.
func TestScenarioNamesItsAdversary(t *testing.T) {
	out := mustRun(t, strings.Fields("scenario -strategy eclipse -forge 10 -table pingevict -partition 2 -nodes 50 -missions 5 -k 2 -l 2 -emerging 1h -mc-trials 50")...)
	if !strings.Contains(out, " attack=eclipse forge=10 table=pingevict replicas=1 ") || !strings.Contains(out, " partition=2 ") {
		t.Errorf("eclipse scenario header:\n%s", out)
	}
}
