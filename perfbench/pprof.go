package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profiledPackages are the packages whose flat CPU share the traced run
// reports as pprof.<name>_pct: the simulator's packages, the Go runtime
// and "other" for samples with neither on the stack.
var profiledPackages = []string{
	"trace", "rng", "cpu", "cache", "mem", "sim", "wear", "engine",
	"nvm", "policy", "stats", "core", "experiments", "scenario",
	"server", "sched", "runtime", "other",
}

// profiler accumulates CPU-profile samples by package over any number
// of profiled intervals.
type profiler struct {
	flat  map[string]int64
	total int64
	buf   bytes.Buffer
}

func newProfiler() *profiler { return &profiler{flat: map[string]int64{}} }

// start begins one profiled interval.
func (p *profiler) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the interval and folds its samples in.
func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return fmt.Errorf("cpu profile: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %v", err)
	}
	return p.add(raw)
}

// shares returns each profiled package's flat share of all samples, in
// percent.
func (p *profiler) shares() map[string]float64 {
	out := map[string]float64{}
	for _, name := range profiledPackages {
		if p.total > 0 {
			out[name] = 100 * float64(p.flat[name]) / float64(p.total)
		} else {
			out[name] = 0
		}
	}
	return out
}

// packageOf maps a symbol such as "mellow/internal/cache.(*Cache).find"
// to its reporting bucket ("cache").
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(fn, "mellow/internal/")
	if !ok {
		return "other"
	}
	pkg, _, _ := strings.Cut(rest, ".")
	for _, name := range profiledPackages {
		if name == pkg {
			return pkg
		}
	}
	return "other"
}

// add decodes one uncompressed profile.proto message and charges each
// sample's CPU time to a package (see bucketOf). A location lists its
// inlined calls innermost first; a sample lists its locations leaf
// first.
func (p *profiler) add(msg []byte) error {
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err := walkFields(msg, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, u := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %v", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		p.flat[bucketOf(s.locs, locFns, fnName, strs)] += v
		p.total += v
	}
	return nil
}

// bucketOf charges a sample to the package of its innermost frame that
// belongs to the runtime or to the simulator, so a standard-library
// leaf such as math.Pow counts for the package that called it.
func bucketOf(locs []uint64, locFns map[uint64][]uint64, fnName map[uint64]int64, strs []string) string {
	for _, loc := range locs {
		for _, fn := range locFns[loc] {
			i, ok := fnName[fn]
			if !ok || i < 0 || int(i) >= len(strs) {
				continue
			}
			if b := packageOf(strs[i]); b != "other" {
				return b
			}
		}
	}
	return "other"
}

// appendPacked appends a repeated varint field that arrived either as
// one varint (v) or packed into a length-delimited run (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// walkFields calls fn for every field of a protobuf message: varint
// fields get their value in v, length-delimited fields their bytes in b.
// Fixed-width fields, which profile.proto does not use, are skipped.
func walkFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			msg = msg[4:]
		default:
			return errProto
		}
	}
	return nil
}
