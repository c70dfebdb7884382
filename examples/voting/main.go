// Command voting reproduces the paper's secure-voting scenario (Section I):
// encrypted ballots are collected during the polling window, but the
// tallying key is self-emerging and appears only after the polls close —
// even the election authority cannot count early. A drop-attacking
// adversary tries to destroy the key instead.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"selfemerge"
)

func main() {
	// Honest run: ballots count after the polls close.
	net, err := selfemerge.NewNetwork(selfemerge.NetworkConfig{Nodes: 250, Seed: 11})
	if err != nil {
		log.Fatal(err)
	}

	ballots := []string{"alice: YES", "bob: NO", "carol: YES", "dave: YES"}
	const pollWindow = 8 * time.Hour

	tallyKey, err := net.Send([]byte(strings.Join(ballots, "\n")), pollWindow,
		selfemerge.WithScheme(selfemerge.SchemeKeyShare), // long window: churn-resilient scheme
		selfemerge.WithThreatModel(0.2),
	)
	if err != nil {
		log.Fatal(err)
	}
	plan := tallyKey.Plan()
	fmt.Printf("polls close at %v; tally key routed via %v (k=%d, l=%d, n=%d per column)\n",
		tallyKey.Release().Format(time.Kitchen), plan.Scheme, plan.K, plan.L, plan.ShareN)

	// Mid-poll: counting must be impossible.
	net.RunUntil(tallyKey.Release().Add(-pollWindow / 2))
	if _, _, ok := net.Emerged(tallyKey); ok {
		log.Fatal("BUG: tally possible mid-poll")
	}
	fmt.Printf("%v: polls still open, tally key still dispersed\n", net.Now().Format(time.Kitchen))

	// After close: tally.
	net.RunUntil(tallyKey.Release().Add(time.Minute))
	net.Settle()
	tally, at, ok := net.Emerged(tallyKey)
	if !ok {
		log.Fatal("tally key never emerged")
	}
	yes := strings.Count(string(tally), "YES")
	no := strings.Count(string(tally), ": NO")
	fmt.Printf("%v: polls closed, tally: YES=%d NO=%d\n\n", at.Format(time.Kitchen), yes, no)

	// Adversarial run: 100% of nodes drop every package they hold.
	hostile, err := selfemerge.NewNetwork(selfemerge.NetworkConfig{
		Nodes:         250,
		MaliciousRate: 1,
		Attack:        selfemerge.AttackDrop,
		Seed:          12,
	})
	if err != nil {
		log.Fatal(err)
	}
	doomed, err := hostile.Send([]byte("YES: 3, NO: 1"), pollWindow,
		selfemerge.WithScheme(selfemerge.SchemeKeyShare))
	if err != nil {
		log.Fatal(err)
	}
	hostile.RunUntil(doomed.Release().Add(time.Hour))
	hostile.Settle()
	if _, _, ok := hostile.Emerged(doomed); ok {
		fmt.Println("unexpected: tally survived a total drop attack")
	} else {
		fmt.Println("drop attack demo: a fully hostile DHT destroyed the tally key (availability, not secrecy, is lost)")
	}
}
