//go:build race

package dht

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// exact allocation counts are only asserted without it.
const raceEnabled = true
