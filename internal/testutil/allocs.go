package testutil

import (
	"runtime"
	"testing"
)

// BoundDecodeAllocs fails t if one decode of data allocates more than
// 8·len(data)+256 bytes: a length or count field that sizes an allocation
// before the bytes behind it are checked lets a small datagram buy a large
// heap. The heap counters are process-wide and the fuzzing engine allocates
// beside the target, so the bound holds for the mean of many decodes.
func BoundDecodeAllocs(t *testing.T, data []byte, decode func()) {
	t.Helper()
	const decodes = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range decodes {
		decode()
	}
	runtime.ReadMemStats(&after)
	if grew := (after.TotalAlloc - before.TotalAlloc) / decodes; grew > 8*uint64(len(data))+256 {
		t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
	}
}
