package main

import "time"

// Example runs the tour. The program prints simulated times in the local
// zone, which the example pins to UTC so that its output is the same anywhere.
func Example() {
	time.Local = time.UTC
	main()
	// Output:
	// dispatched: scheme=joint paths k=7, columns l=28, holders=196, release=1:01AM
	// 12:01AM: nothing has emerged (as it should be)
	// 1:07AM: emerged (delivered 5ms after release): "the vault combination is 7-21-34"
}
