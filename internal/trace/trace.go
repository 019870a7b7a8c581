// Package trace synthesises the paper's workloads. SPEC CPU2006 binaries
// and gem5 checkpoints are proprietary/unavailable, so each of the nine
// SPEC benchmarks plus GUPS and stream (Table IV) is replaced by a
// parametric generator that reproduces the traits the Mellow Writes
// mechanisms are sensitive to:
//
//   - LLC miss rate (calibrated to Table IV MPKI; verified by test),
//   - the read/write mix of memory traffic,
//   - spatial pattern (streaming, strided stencil, random, pointer
//     chase, random-update) and therefore bank/row-buffer behaviour,
//   - dependence (pointer chases serialise; streams overlap),
//   - a resident hot set that exercises the LLC LRU stack profiler.
//
// See DESIGN.md §4 for the substitution rationale.
package trace

import (
	"math"

	"mellow/internal/rng"
)

// Op is one trace item: Gap non-memory instructions followed by one
// memory access. The access itself counts as one instruction, so an Op
// represents Gap+1 instructions.
type Op struct {
	// Gap is the number of non-memory instructions preceding the access.
	Gap uint32
	// Addr is the byte address accessed.
	Addr uint64
	// Write marks a store; loads are reads.
	Write bool
	// Dep marks a load whose address depends on the previous load
	// (pointer chasing): it cannot issue until that load completes.
	Dep bool
}

// Generator produces an infinite instruction/access stream. Next may be
// called on a goroutine other than the one running the simulation (the
// CPU model draws each phase's ops ahead of time on a goroutine of its
// own), so a generator must not share mutable state with the rest of
// the run.
type Generator interface {
	Next() Op
}

// gapper draws instruction gaps with a fractional mean: uniform jitter in
// [0.5, 1.5)×mean with an accumulator so the long-run mean is exact.
type gapper struct {
	src  *rng.Source
	mean float64
	acc  float64
}

func (g *gapper) next() uint32 {
	g.acc += g.mean * (0.5 + g.src.Float64())
	n := math.Floor(g.acc)
	g.acc -= n
	return uint32(n)
}

// region is a contiguous array of memory.
type region struct {
	base  uint64
	bytes uint64
}

func (r region) lines() uint64 { return r.bytes / 64 }

// regionAlign is the layout's allocation granularity.
const regionAlign = 1 << 20

// alignedBytes rounds a region request up to the allocation granularity.
func alignedBytes(bytes uint64) uint64 {
	return (bytes + regionAlign - 1) &^ uint64(regionAlign-1)
}

// layout hands out non-overlapping regions within the 4 GB physical
// space, leaving the first 64 MB unused and aligning to 1 MB.
type layout struct{ cursor uint64 }

func newLayout() *layout { return &layout{cursor: 64 << 20} }

func (a *layout) alloc(bytes uint64) region {
	r := region{base: a.cursor, bytes: alignedBytes(bytes)}
	a.cursor += r.bytes
	if a.cursor > 4<<30 {
		panic("trace: workload layout exceeds 4 GB physical memory")
	}
	return r
}

// hotSet models a cache-resident (or nearly so) reuse region with a
// Zipf-skewed line popularity, providing the LLC hit-position signal the
// eager profiler feeds on.
type hotSet struct {
	src       *rng.Source
	base      uint64
	lines     uint64
	mask      uint64 // lines-1 when lines is a power of two, else 0
	zipf      *rng.Zipf
	writeProb float64
}

func newHotSet(src *rng.Source, reg region, zipf *rng.Zipf, writeProb float64) *hotSet {
	h := &hotSet{src: src, base: reg.base, lines: reg.lines(), zipf: zipf, writeProb: writeProb}
	if h.lines&(h.lines-1) == 0 {
		h.mask = h.lines - 1
	}
	return h
}

func (h *hotSet) access() (addr uint64, write bool) {
	// Spread the popular lines across the address space so they do not
	// all collide in the same cache sets: multiply by a large odd
	// constant modulo the line count (a bijection). The product stays far
	// below 2^64 (lines < 2^26), and the Zipf draw is below lines, so the
	// result is already a line index within the region.
	l := h.zipf.Next() * 0x9E3779B1
	if h.mask != 0 {
		l &= h.mask
	} else {
		l %= h.lines
	}
	return h.base + l*64, h.src.Bool(h.writeProb)
}

// stream walks a set of equally sized arrays element-by-element (8-byte
// words), emitting one access per array per element — the shape of
// stream/lbm/milc/libquantum and, with more arrays plus a hot set, of the
// stencil codes. Read arrays come first in the sweep, then write arrays.
type stream struct {
	src    *rng.Source
	gap    gapper
	bases  []uint64 // array base addresses: reads, then writes
	nreads int
	size   uint64 // bytes per array
	off    uint64 // byte offset of the current element, wraps at size
	idx    int    // next position in the combined read+write sweep
	hot    *hotSet
	pHot   float64
}

func (s *stream) Next() Op {
	g := s.gap.next()
	if s.hot != nil && s.src.Bool(s.pHot) {
		addr, w := s.hot.access()
		return Op{Gap: g, Addr: addr, Write: w}
	}
	op := Op{Gap: g, Addr: s.bases[s.idx] + s.off, Write: s.idx >= s.nreads}
	s.idx++
	if s.idx == len(s.bases) {
		s.idx = 0
		if s.off += 8; s.off == s.size {
			s.off = 0
		}
	}
	return op
}

// random emits accesses to uniformly random lines of a region —
// optionally dependent (pointer chase), optionally read-modify-write
// (the write to the just-read line follows immediately), with a given
// write probability for the follow-up or standalone store.
type random struct {
	src     *rng.Source
	gap     gapper
	reg     region
	dep     bool
	rmw     bool
	wProb   float64
	pending uint64 // pending RMW write address
	hasPend bool
	hot     *hotSet
	pHot    float64
}

func (r *random) Next() Op {
	if r.hasPend {
		r.hasPend = false
		return Op{Gap: 0, Addr: r.pending, Write: true}
	}
	g := r.gap.next()
	if r.hot != nil && r.src.Bool(r.pHot) {
		addr, w := r.hot.access()
		return Op{Gap: g, Addr: addr, Write: w}
	}
	addr := r.reg.base + r.src.Uintn(r.reg.lines())*64
	if r.rmw && r.src.Bool(r.wProb) {
		r.pending = addr
		r.hasPend = true
		return Op{Gap: g, Addr: addr, Dep: r.dep}
	}
	if !r.rmw && r.src.Bool(r.wProb) {
		return Op{Gap: g, Addr: addr, Write: true}
	}
	return Op{Gap: g, Addr: addr, Dep: r.dep}
}
