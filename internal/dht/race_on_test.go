//go:build race

package dht

// raceEnabled: the race detector's instrumentation allocates, so exact
// allocation counts are only asserted without it.
const raceEnabled = true
