package main

import "time"

// Example runs both networks. The program prints simulated times in the local
// zone, which the example pins to UTC so that its output is the same anywhere.
func Example() {
	time.Local = time.UTC
	main()
	// Output:
	// --- honest-majority DHT (p = 10%) ---
	// exam sealed; starts at 1:01PM; plan k=7 l=42 using 294 holders
	// no leak: adversary could not reconstruct the key before the exam
	// exam opened at 1:01PM:
	// Q1: Prove Lemma 1 (Rr + Rd > 1 for p < 0.5).
	// Q2: Derive Equation (3) for the node-joint scheme.
	// Q3: Why does churn favour just-in-time key shares?
	//
	// --- fully compromised DHT (p = 100%) ---
	// exam sealed; starts at 1:01PM; plan k=7 l=42 using 294 holders
	// LEAKED: adversary reconstructed the key at 1:01AM, 12h0m0s before the exam
	// exam opened at 1:01PM:
	// Q1: Prove Lemma 1 (Rr + Rd > 1 for p < 0.5).
	// Q2: Derive Equation (3) for the node-joint scheme.
	// Q3: Why does churn favour just-in-time key shares?
}
