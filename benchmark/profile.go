package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes — gzip-compressed
// profile.proto messages — with the standard library alone, and splits the
// samples into the ledger's per-layer cpu_share rows.

// stackSample is one profile sample: the function names of its stack,
// leaf first (inlined frames expanded), and its value in the profile's last
// sample type (CPU nanoseconds for a CPU profile).
type stackSample struct {
	stack []string
	value int64
}

// protoField is one decoded field of a protobuf message: varint fields
// carry num, length-delimited fields carry data.
type protoField struct {
	tag  int
	num  uint64
	data []byte
}

var errTruncated = errors.New("profile: truncated message")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// readFields splits one message into its fields. Only the wire types
// profile.proto uses (varint, length-delimited) plus the fixed-width ones a
// foreign writer might add are understood.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		f := protoField{tag: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.num, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
		case 1:
			if len(rest) < 8 {
				return nil, errTruncated
			}
			rest = rest[8:]
		case 2:
			var n uint64
			if n, rest, err = readVarint(rest); err != nil {
				return nil, err
			}
			if n > uint64(len(rest)) {
				return nil, errTruncated
			}
			f.data, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return nil, errTruncated
			}
			rest = rest[4:]
		default:
			return nil, fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		out = append(out, f)
		b = rest
	}
	return out, nil
}

// repeatedVarints appends a repeated integer field's values: packed (one
// length-delimited run) or unpacked (one varint per occurrence).
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.data == nil {
		return append(dst, f.num), nil
	}
	for b := f.data; len(b) > 0; {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a gzip-compressed profile.proto into stack samples.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}
	var (
		strs      []string
		funcName  = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		sampleMsg [][]byte
	)
	for _, f := range top {
		switch f.tag {
		case 2:
			sampleMsg = append(sampleMsg, f.data)
		case 4: // Location{id=1, line=4{function_id=1}}
			fields, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, lf := range fields {
				switch lf.tag {
				case 1:
					id = lf.num
				case 4:
					line, err := readFields(lf.data)
					if err != nil {
						return nil, err
					}
					for _, ln := range line {
						if ln.tag == 1 {
							funcs = append(funcs, ln.num)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // Function{id=1, name=2}
			fields, err := readFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, ff := range fields {
				switch ff.tag {
				case 1:
					id = ff.num
				case 2:
					name = ff.num
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}
	samples := make([]stackSample, 0, len(sampleMsg))
	for _, msg := range sampleMsg {
		fields, err := readFields(msg)
		if err != nil {
			return nil, err
		}
		var locs, values []uint64
		for _, sf := range fields {
			switch sf.tag {
			case 1:
				if locs, err = repeatedVarints(locs, sf); err != nil {
					return nil, err
				}
			case 2:
				if values, err = repeatedVarints(values, sf); err != nil {
					return nil, err
				}
			}
		}
		if len(values) == 0 {
			continue
		}
		s := stackSample{value: int64(values[len(values)-1])}
		for _, loc := range locs {
			for _, fn := range locFuncs[loc] {
				idx := funcName[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile: string index %d out of range", idx)
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// funcPackage returns the import path of a profile function name:
// "selfemerge/internal/dht.(*Table).Observe" → "selfemerge/internal/dht".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerPackages maps the program's packages to ledger layers. The small
// packages the root package composes (churn, scenario, stats) count with it.
var layerPackages = map[string]string{
	"selfemerge":                           "network",
	"selfemerge/internal/protocol":         "protocol",
	"selfemerge/internal/dht":              "dht",
	"selfemerge/internal/transport/simnet": "simnet",
	"selfemerge/internal/sim":              "sim",
	"selfemerge/internal/fault":            "fault",
	"selfemerge/internal/adversary":        "adversary",
	"selfemerge/internal/churn":            "network",
	"selfemerge/internal/scenario":         "network",
	"selfemerge/internal/stats":            "network",
	"selfemerge/internal/cloud":            "cloud",
	"selfemerge/internal/crypto/seal":      "crypto",
	"selfemerge/internal/crypto/onion":     "crypto",
	"selfemerge/internal/crypto/shamir":    "crypto",
}

func isRuntime(fn string) bool {
	if !strings.Contains(fn, ".") {
		return true // assembly helpers such as memeqbody carry no package
	}
	pkg := funcPackage(fn)
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/bytealg" || pkg == "internal/cpu"
}

func isMutex(fn string) bool {
	return strings.HasPrefix(fn, "sync.(*Mutex)") || strings.HasPrefix(fn, "sync.(*RWMutex)") ||
		strings.HasPrefix(fn, "internal/sync.(*Mutex)")
}

// classify assigns one sample to exactly one share row. Cross-cutting host
// costs come first, read off the runtime frames at the leaf end of the
// stack: collecting (any gc/sweep/scavenge frame), allocating (under
// mallocgc), or locking (the nearest non-runtime frame is a sync mutex
// method). Everything else belongs to the innermost frame of a program
// package — so a layer's share is its self time plus the standard-library
// helpers it calls (AES-GCM under seal, encoding/binary under dht, memmove
// under whoever copies). Samples with no program frame are the runtime's
// own (scheduler, background work) or, failing that, the harness's.
func classify(stack []string) string {
	for len(stack) > 0 && stack[0] == "runtime.asyncPreempt" {
		stack = stack[1:] // the signal landed on a preemption point of the caller
	}
	if len(stack) == 0 {
		return "other"
	}
	malloc := false
	i := 0
	for ; i < len(stack) && isRuntime(stack[i]); i++ {
		fn := stack[i]
		switch {
		case strings.HasPrefix(fn, "runtime.gc"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.(*sweepLocked)"),
			strings.HasPrefix(fn, "runtime.wbBufFlush"):
			return "gc"
		case strings.HasPrefix(fn, "runtime.mallocgc"):
			malloc = true
		}
	}
	if i < len(stack) && isMutex(stack[i]) {
		return "mutex"
	}
	if malloc {
		return "malloc"
	}
	for _, fn := range stack[i:] {
		if layer, ok := layerPackages[funcPackage(fn)]; ok {
			return layer
		}
	}
	if i > 0 {
		return "runtime"
	}
	return "other"
}

// cpuShares returns each row's share of the profile's total CPU time.
func cpuShares(samples []stackSample) map[string]float64 {
	shares := make(map[string]float64)
	var total float64
	for _, s := range samples {
		shares[classify(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares
}
