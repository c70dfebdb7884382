//go:build !race

package dht

const raceEnabled = false
