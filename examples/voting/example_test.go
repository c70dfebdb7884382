package main

import "time"

// Example runs the election: one key-share mission at the planner's own
// shape, then a total drop attack. The program prints simulated times in the
// local zone, which the example pins to UTC so that its output is the same
// anywhere.
func Example() {
	time.Local = time.UTC
	main()
	// Output:
	// polls close at 9:01AM; tally key routed via share (k=4, l=8, n=31 per column)
	// 5:01AM: polls still open, tally key still dispersed
	// 9:01AM: polls closed, tally: YES=3 NO=1
	//
	// drop attack demo: a fully hostile DHT destroyed the tally key (availability, not secrecy, is lost)
}
