// Command emergectl runs one complete self-emerging send/receive cycle on
// an in-process DHT, with the adversary and churn knobs exposed. It is the
// fastest way to see how each scheme behaves under a chosen threat model:
//
//	emergectl -scheme share -nodes 500 -p 0.2 -emerging 24h
//	emergectl -scheme joint -p 1 -drop          # watch a drop attack win
//	emergectl -scheme central -churn 12h        # watch churn eat the key
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"selfemerge"
	"selfemerge/internal/core"
)

func main() {
	var (
		schemeName = flag.String("scheme", "joint", "central|disjoint|joint|share")
		nodes      = flag.Int("nodes", 300, "DHT network size")
		p          = flag.Float64("p", 0.2, "fraction of malicious (Sybil) nodes")
		drop       = flag.Bool("drop", false, "malicious nodes mount a drop attack instead of spying")
		emerging   = flag.Duration("emerging", 12*time.Hour, "emerging period T")
		churn      = flag.Duration("churn", 0, "mean node lifetime (0 = no churn)")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		message    = flag.String("message", "meet me at the old mill at midnight", "plaintext to protect")
	)
	flag.Parse()

	scheme, err := core.ParseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	attack := selfemerge.AttackSpy
	if *drop {
		attack = selfemerge.AttackDrop
	}
	net, err := selfemerge.NewNetwork(selfemerge.NetworkConfig{
		Nodes:         *nodes,
		MaliciousRate: *p,
		Attack:        attack,
		MeanLifetime:  *churn,
		Seed:          *seed,
		// Real deployment default: key material from crypto/rand, not the
		// seed-derived stream (the seed only shapes the simulated network).
		SystemRand: true,
	})
	if err != nil {
		fatal(err)
	}

	msg, err := net.Send([]byte(*message), *emerging,
		selfemerge.WithScheme(scheme),
		selfemerge.WithThreatModel(*p),
	)
	if err != nil {
		fatal(err)
	}
	plan := msg.Plan()
	fmt.Printf("network : %d nodes, p=%.2f, drop=%v, churn=%v\n", *nodes, *p, *drop, *churn)
	fmt.Printf("plan    : %v k=%d l=%d holders=%d (predicted Rr=%.4f Rd=%.4f)\n",
		plan.Scheme, plan.K, plan.L, plan.NodesRequired(),
		plan.Predicted.ReleaseAhead, plan.Predicted.Drop)
	fmt.Printf("timeline: start %v, release %v\n",
		net.Now().Format(time.Kitchen), msg.Release().Format(time.Kitchen))

	net.RunUntil(msg.Release().Add(time.Minute))
	net.Settle()

	if at, ok := net.AdversaryRecovered(msg); ok && at.Before(msg.Release()) {
		fmt.Printf("RELEASE-AHEAD: adversary held the key %v early (at %v)\n",
			msg.Release().Sub(at).Round(time.Second), at.Format(time.Kitchen))
	} else {
		fmt.Println("release-ahead attack failed: key not reconstructable before release")
	}
	if plain, at, ok := net.Emerged(msg); ok {
		fmt.Printf("EMERGED %v after release: %q\n", at.Sub(msg.Release()).Round(time.Millisecond), plain)
	} else {
		fmt.Println("NOT DELIVERED: the key was dropped or lost (drop attack / churn)")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "emergectl: %v\n", err)
	os.Exit(1)
}
