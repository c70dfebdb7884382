package scenario_test

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/experiment"
	"selfemerge/internal/scenario"
)

// TestPartitionHundredKByteIdentical is the acceptance run of the partition
// engine at scale: one population of 100,000 nodes split over 8 event
// loops, driven through a live mission sweep, with the emitted CSV and JSON
// compared byte-for-byte across GOMAXPROCS {1, 4, NumCPU} (the lockstep
// sizes its workers from it). Any schedule leak — a racy cross-shard merge, a
// worker-count-dependent event order, a non-deterministic report drain —
// shows up as a byte diff here. Gated behind EMERGE_BIG=1: it boots the
// 10^5-node network once per combination and wants minutes and GBs, not CI.
func TestPartitionHundredKByteIdentical(t *testing.T) {
	if os.Getenv("EMERGE_BIG") == "" {
		t.Skip("set EMERGE_BIG=1 to run the 100k-node partitioned determinism check")
	}

	axis, err := experiment.ParseAxis("p=0.1")
	if err != nil {
		t.Fatal(err)
	}
	sweep := experiment.Sweep{
		Name: "partition-100k",
		Seed: 7,
		Base: experiment.Point{
			Scheme:  core.SchemeJoint,
			Network: 100_000,
			K:       2, L: 2,
			Live: experiment.Live{Strategy: adversary.StrategyDrop, Partition: 8},
		},
		Axes: []experiment.Axis{axis},
	}

	emit := func(maxprocs int) (string, string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxprocs))
		est := &scenario.Estimator{Template: scenario.Config{
			Missions: 6,
			Emerging: time.Hour,
			MCTrials: 6,
		}}
		runner := experiment.Runner{Estimator: est, Parallel: 1}
		rs, err := runner.Run(sweep)
		if err != nil {
			t.Fatal(err)
		}
		var csv, json bytes.Buffer
		if err := rs.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := rs.WriteJSON(&json); err != nil {
			t.Fatal(err)
		}
		return csv.String(), json.String()
	}

	refCSV, refJSON := emit(1)
	if len(refCSV) == 0 || len(refJSON) == 0 {
		t.Fatal("empty emitted output")
	}
	for _, maxprocs := range []int{4, runtime.NumCPU()} {
		csv, json := emit(maxprocs)
		if csv != refCSV {
			t.Errorf("CSV differs at GOMAXPROCS=%d", maxprocs)
		}
		if json != refJSON {
			t.Errorf("JSON differs at GOMAXPROCS=%d", maxprocs)
		}
	}
}
