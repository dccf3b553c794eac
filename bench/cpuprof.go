package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced repeat runs under runtime/pprof's CPU profiler. This file
// reads the profile back — a gzipped profile.proto message — with just
// enough protobuf decoding for the four fields attribution needs, and
// gives every sample to one owner: the outside answer to "where does
// host time go".

// attribute names the owner of one sample from its stack, leaf first:
// the leaf-most frame that is in one of the repository's measured layers
// or in the harness (every simulated proc has sim.(*Proc).run at its root,
// so the harness must be looked for on the way up, not after). A stack
// with neither belongs to the garbage collector's own goroutines or to
// the scheduler: idle, parking, stealing, and whatever else the runtime
// does on no layer's behalf.
func attribute(stack []string) string {
	for _, fn := range stack {
		// The harness is main in the benchmark binary and hpbd/bench in
		// its test binary.
		if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "hpbd/bench.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(fn, "hpbd/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 && isLayer(rest[:i]) {
				return rest[:i]
			}
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgs") {
			return "runtime_gc"
		}
	}
	return "runtime_sched"
}

// isLayer reports whether pkg has a cpu.<pkg>_share of its own. Frames of
// the other internal packages (the server's ramdisk, placement, cluster)
// are charged to the layer that called them.
func isLayer(pkg string) bool {
	for _, s := range cpuShares {
		if s == pkg {
			return !strings.HasPrefix(pkg, "runtime_") && pkg != "bench"
		}
	}
	return false
}

// cpuAttribution parses a pprof CPU profile and returns each owner's
// share of the sampled CPU time, and the number of samples.
func cpuAttribution(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		value int64 // the last value of the sample: CPU nanoseconds
		n     int64 // the first: sample count
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id → string table index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = protoUints(s.locs, v, b)
				case 2:
					vals = protoUints(vals, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.n, s.value = int64(vals[0]), int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	owners := map[string]float64{}
	var total float64
	var count int64
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		owners[attribute(stack)] += float64(s.value)
		total += float64(s.value)
		count += s.n
	}
	if total == 0 {
		return nil, 0, errors.New("CPU profile holds no samples")
	}
	for k := range owners {
		owners[k] /= total
	}
	return owners, count, nil
}

var errProto = errors.New("malformed profile")

// protoFields calls fn for every field of a protobuf message: with the
// value for varint fields, with the bytes for length-delimited ones.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, key&7)
		}
	}
	return nil
}

// protoUints appends a repeated varint field's values: one when it came
// unpacked (b is nil), all of them when it came packed in b.
func protoUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, v)
		b = b[n:]
	}
	return dst
}
