package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// modules are the layers CPU samples are charged to, named after the
// repository's packages; "runtime" covers the Go runtime (allocation,
// GC, scheduling) and "other" everything else.
var modules = []string{
	"arrivals", "cluster", "hv", "sched", "cpu", "cache", "workload", "monitor",
	"core", "detect", "snapshot", "sweep", "runtime", "other",
}

// helperPackages hold small shared helpers (random numbers, counter
// blocks, VM and machine descriptors, statistics) that every layer
// calls. A sample whose leaf frame is in one of them, or in the standard
// library outside the runtime, is charged to the nearest caller in a
// named module: the helper works on that module's behalf.
var helperPackages = map[string]bool{
	"kyoto/internal/xrand": true, "kyoto/internal/pmc": true, "kyoto/internal/vm": true,
	"kyoto/internal/machine": true, "kyoto/internal/stats": true,
}

// startProfile starts the CPU profiler; the returned function stops it
// and returns each module's share of the samples.
func startProfile() (func() (map[string]float64, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		return moduleShares(&buf)
	}, nil
}

// moduleShares decodes a gzipped pprof profile and returns the share of
// samples charged to each module. Every sample lands in exactly one
// module, so the shares sum to 1.
func moduleShares(r io.Reader) (map[string]float64, error) {
	stacks, err := decodeProfile(r)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(modules))
	for _, m := range modules {
		shares[m] = 0
	}
	var total int64
	for _, s := range stacks {
		shares[moduleOf(s.frames)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for m := range shares {
			shares[m] /= float64(total)
		}
	}
	return shares, nil
}

// moduleOf charges a stack (leaf first) to one module.
func moduleOf(frames []string) string {
	for _, fn := range frames {
		pkg := packageOf(fn)
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
			return "runtime"
		}
		if mod, ok := strings.CutPrefix(pkg, "kyoto/internal/"); ok && !helperPackages[pkg] {
			for _, m := range modules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		if helperPackages[pkg] || !strings.Contains(pkg, ".") && pkg != "main" && !strings.HasPrefix(pkg, "kyoto") {
			// A helper or standard-library frame: look at its caller.
			continue
		}
		return "other"
	}
	return "other"
}

// packageOf returns the import path of a symbol such as
// "kyoto/internal/cache.(*Cache).Access".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// stack is one profile sample: its function names, leaf first, and its
// sample count.
type stack struct {
	frames []string
	count  int64
}

// decodeProfile reads just enough of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) to recover each
// sample's function names: samples (field 2), locations (4), functions
// (5) and the string table (6).
func decodeProfile(r io.Reader) ([]stack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, wire, v, b)
				case 2:
					if vals := appendUints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding profile: %w", err)
	}
	stacks := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				idx := funcNames[fid]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("decoding profile: function %d names string %d of %d", fid, idx, len(strs))
				}
				st.frames = append(st.frames, strs[idx])
			}
		}
		stacks = append(stacks, st)
	}
	return stacks, nil
}

// eachField walks one protobuf message, calling f with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed (wire type 2) or
// not (wire type 0).
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
