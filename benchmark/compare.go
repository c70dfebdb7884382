package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var led ledger
	if err := json.Unmarshal(data, &led); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &led, nil
}

// verdict judges one end-to-end metric of the new ledger against the base:
// how far it moved in its bad direction (a share of the base, or an absolute
// difference for ratio metrics) against the ledger bound. The base's own
// pass-to-pass spread decides whether a movement can be resolved at all.
func verdict(m metricDef, base, next value) string {
	worse := next.Value - base.Value
	if m.HigherBetter {
		worse = -worse
	}
	if !m.Abs {
		if base.Value == 0 {
			return "ok"
		}
		worse /= base.Value
	}
	switch {
	case base.Spread > m.Bound && !m.Abs:
		return "unresolved"
	case worse > m.Bound:
		return "regressed"
	default:
		return "ok"
	}
}

// compareLedgers prints one row per (workload, end-to-end metric) and
// reports whether any row regressed or any workload's failed share rose.
func compareLedgers(basePath, nextPath string) (regressed bool, err error) {
	base, err := readLedger(basePath)
	if err != nil {
		return false, err
	}
	next, err := readLedger(nextPath)
	if err != nil {
		return false, err
	}
	if base.Seed != next.Seed {
		fmt.Printf("note: seeds differ (%d vs %d): simulation statistics are not comparable exactly\n", base.Seed, next.Seed)
	}
	byName := map[string]*result{}
	for _, r := range next.Workloads {
		byName[r.Workload] = r
	}
	fmt.Printf("%-13s %-22s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "new/base", "verdict")
	for _, b := range base.Workloads {
		n, ok := byName[b.Workload]
		if !ok {
			return false, fmt.Errorf("workload %s is missing from %s", b.Workload, nextPath)
		}
		for _, m := range endToEndMetrics {
			bv, nv := b.Metrics[m.Name], n.Metrics[m.Name]
			v := verdict(m, bv, nv)
			if v == "regressed" {
				regressed = true
			}
			ratio := "-"
			if bv.Value != 0 {
				ratio = fmt.Sprintf("%.4f", nv.Value/bv.Value)
			}
			fmt.Printf("%-13s %-22s %14.6g %14.6g %9s  %s\n", b.Workload, m.Name, bv.Value, nv.Value, ratio, v)
		}
		same := "identical"
		if b.Digest != n.Digest {
			same = "DIFFERS"
		}
		fmt.Printf("%-13s %-22s %14s %14s %9s  %s\n", b.Workload, "sim_digest", b.Digest, n.Digest, "", same)
	}
	return regressed, nil
}
