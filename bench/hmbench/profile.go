package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file decodes the gzipped profile.proto that runtime/pprof writes
// (only the fields attribution needs) and attributes each CPU sample to
// a layer, so the benchmark needs no module beyond the standard library.

// layerPrefix is the import-path prefix of the repository's layers.
const layerPrefix = "github.com/hetmem/hetmem/internal/"

// cpuLayers are the layers reported as cpu.<layer>; samples in any other
// repository package, or in the benchmark itself, count as cpu.other.
var cpuLayers = []string{"sim", "memsim", "core", "charm", "numa", "kernels", "trace", "tune", "serve", "gc"}

// sample is one profile sample: its stack leaf first, and its weight.
type sample struct {
	frames []string
	weight int64
}

func readProfile(r io.Reader) ([]sample, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return decodeProfile(raw)
}

var errProto = errors.New("profile: malformed protobuf")

// fields calls fn for every top-level field of the protobuf message b.
// For varint and fixed fields v holds the value; for length-delimited
// fields data holds the bytes.
func fields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// decodeProfile reads Profile.sample (2), .location (4), .function (5)
// and .string_table (6).
func decodeProfile(b []byte) ([]sample, error) {
	type rawSample struct{ locs, values []uint64 }
	var (
		strs    []string
		samples []rawSample
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err := fields(b, func(num, _ int, _ uint64, data []byte) (err error) {
		switch num {
		case 2:
			var s rawSample
			err = fields(data, func(num, wire int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, wire, v, data)
				case 2:
					s.values, err = varints(s.values, wire, v, data)
				}
				return err
			})
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err = fields(data, func(num, _ int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(data, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5:
			var id, name uint64
			err = fields(data, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errProto
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, sample{frames: frames, weight: int64(s.values[0])})
	}
	return out, nil
}

// layerOf attributes a stack (leaf first) to a layer: the innermost frame
// in a repository layer package wins, and runtime frames below it count
// for that layer. A stack with no repository frame is Go runtime work
// outside the layers (GC workers, the scavenger, the scheduler between
// goroutines) and counts as "gc"; the benchmark's own frames count as
// "bench".
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, layerPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "gc"
}

// handoffLeaves are the runtime scheduling, channel and futex functions
// a sim process switch spends its time in.
var handoffLeaves = []string{
	"runtime.futex", "runtime.chan", "runtime.send", "runtime.recv",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m",
	"runtime.schedule", "runtime.findRunnable", "runtime.runq", "runtime.execute",
	"runtime.gogo", "runtime.mcall", "runtime.lock", "runtime.unlock",
	"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mPark",
	"runtime.notewakeup", "runtime.notesleep", "runtime.semasleep", "runtime.semawakeup",
	"runtime.selectgo", "runtime.casgstatus", "runtime.osyield", "runtime.usleep",
	"runtime.procyield", "runtime.resetspinning", "runtime.stealWork", "runtime.handoffp",
}

func isHandoff(frames []string) bool {
	if len(frames) == 0 {
		return false
	}
	for _, p := range handoffLeaves {
		if strings.HasPrefix(frames[0], p) {
			return true
		}
	}
	return false
}

// cpuShares turns samples into each reported layer's share of CPU (as
// fractions summing to 1 over cpuLayers plus "other"), and the share of
// CPU that is sim's process handoff, keyed "sim.handoff".
func cpuShares(samples []sample) map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, s := range samples {
		layer := layerOf(s.frames)
		total += s.weight
		by[layer] += s.weight
		if layer == "sim" && isHandoff(s.frames) {
			by["sim.handoff"] += s.weight
		}
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	rest := total
	for _, l := range cpuLayers {
		out[l] = float64(by[l]) / float64(total)
		rest -= by[l]
	}
	out["other"] = float64(rest) / float64(total)
	out["sim.handoff"] = float64(by["sim.handoff"]) / float64(total)
	return out
}
