// Package lintallow holds an annotation naming an analyzer outside the
// suite, as one left behind by a deleted analyzer would: a full-suite run
// must report it.
package lintallow

var sink []byte

func keep(payload []byte) {
	sink = payload //lint:allow retain the transport never recycles this buffer
}
