package main

// Example runs the sweep: its trials are seeded and sampled on one worker, so
// the table is the same on any machine.
func Example() {
	main()
	// Output:
	// hiding a key for 5 node lifetimes with 20% malicious nodes (2000 trials/scheme)
	//
	// scheme           Rr       Rd        R    holders
	// central       0.813    0.004    0.004          1
	// disjoint      0.835    0.001    0.001          9
	// joint         0.657    0.987    0.648        210
	// share         1.000    0.933    0.933      10000
	//
	// R = P[key emerges at tr and was never reconstructable early].
	// Only key share routing survives alpha = 5; the others lose the key to churn
	// or leak it through churn-repair re-replication (Section II-C).
}
