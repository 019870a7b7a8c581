// Package cache implements the three-level cache hierarchy of Table I:
// set-associative true-LRU caches with write-back/write-allocate policy,
// an inclusive LLC with back-invalidation, and the LLC-side machinery of
// Eager Mellow Writes (§IV-B): per-LRU-position hit counters, the
// periodic useless-position profiler of Figure 7, and dirty-candidate
// selection (Figure 8).
package cache

import (
	"fmt"

	"mellow/internal/config"
)

// Line state bits in the flags array. An invalid slot has no bits set.
const (
	flagDirty      = 1 << iota // holds data memory has not seen
	flagEagerClean             // cleaned by an eager mellow write-back, not re-dirtied yet
)

// Cache is one cache level. Lines live in flat struct-of-arrays storage:
// slot set*ways+i holds the line at LRU stack position i of that set, so
// a line's slot offset within its set IS its stack position — which the
// LLC profiler depends on (§IV-B1). An LRU touch shifts a few array
// entries instead of reordering a slice of 32-byte structs, and the whole
// level is three allocations instead of one per set.
//
// Lines store the full line address (byte address >> 6) plus one rather
// than a set-relative tag: a zeroed slot is invalid, so find makes one
// compare per way, a fresh level needs no fill, and reverse mapping for
// eager write-back is one subtraction.
type Cache struct {
	cfg     config.Cache
	ways    int
	nsets   int
	setMask uint64

	tags  []uint64 // line address + 1 per slot; 0 marks an invalid slot
	last  []uint64 // access-clock value at last demand use, per slot
	flags []uint8  // flagDirty | flagEagerClean, per slot

	hits     uint64
	misses   uint64
	acc      uint64
	touches  uint64 // monotone logical clock for decay prediction
	fills    uint64
	evicts   uint64
	dirtyEv  uint64
	profiler *Profiler // non-nil on the LLC only
}

// New builds a cache level from its configuration.
func New(cfg config.Cache) *Cache {
	nsets := cfg.Sets()
	n := nsets * cfg.Ways
	return &Cache{
		cfg:     cfg,
		ways:    cfg.Ways,
		nsets:   nsets,
		setMask: uint64(nsets - 1),
		tags:    make([]uint64, n),
		last:    make([]uint64, n),
		flags:   make([]uint8, n),
	}
}

// base returns the first slot of the set holding addr.
func (c *Cache) base(addr uint64) int { return int(addr&c.setMask) * c.ways }

// find returns the stack position holding addr within the set at base,
// or -1. This is the hottest loop in the simulator; it reads only the
// set's tag stripe, one compare per way.
func (c *Cache) find(base int, addr uint64) int {
	tag := addr + 1
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			return i
		}
	}
	return -1
}

// touch moves the line at stack position i of the set at base to MRU.
func (c *Cache) touch(base, i int) {
	c.shiftIn(base, i, c.tags[base+i], c.last[base+i], c.flags[base+i])
}

// shiftIn pushes positions [0,i) of the set at base down one and writes
// the line (tag, last, flags) at MRU. The three stripes move in one loop:
// sets are a few ways deep, so this beats three memmove calls.
func (c *Cache) shiftIn(base, i int, tag, last uint64, flags uint8) {
	ts := c.tags[base : base+i+1]
	ls, fs := c.last[base:base+len(ts)], c.flags[base:base+len(ts)]
	for j := len(ts) - 1; j > 0; j-- {
		ts[j], ls[j], fs[j] = ts[j-1], ls[j-1], fs[j-1]
	}
	ts[0], ls[0], fs[0] = tag, last, flags
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Config returns the level's configuration.
func (c *Cache) Config() config.Cache { return c.cfg }

// Hits and Misses return demand access counts since the last ResetStats.
func (c *Cache) Hits() uint64   { return c.hits }
func (c *Cache) Misses() uint64 { return c.misses }

// Accesses returns total demand accesses.
func (c *Cache) Accesses() uint64 { return c.acc }

// DirtyEvictions returns the count of dirty victims produced.
func (c *Cache) DirtyEvictions() uint64 { return c.dirtyEv }

// lookup performs a demand access. On a hit the line moves to MRU and is
// dirtied if write; wasEagerClean reports that a write re-dirtied a line
// an eager write-back had cleaned (a wasted eager write).
func (c *Cache) lookup(addr uint64, write bool) (hit, wasEagerClean bool) {
	c.acc++
	base := c.base(addr)
	i := c.find(base, addr)
	if i < 0 {
		c.misses++
		if c.profiler != nil {
			c.profiler.miss++
		}
		return false, false
	}
	c.hits++
	if c.profiler != nil {
		c.profiler.hit[i]++
	}
	if i != 0 {
		c.touch(base, i)
	}
	c.touches++
	c.last[base] = c.touches
	if write {
		wasEagerClean = c.flags[base]&flagEagerClean != 0
		c.flags[base] = c.flags[base]&^flagEagerClean | flagDirty
	}
	return true, wasEagerClean
}

// install allocates a line (after a fill from the next level or an
// incoming write-back from the previous one) and returns the victim, if
// any valid line was displaced.
func (c *Cache) install(addr uint64, dirty bool) (victimAddr uint64, victimValid, victimDirty bool) {
	c.fills++
	c.touches++
	var f uint8
	if dirty {
		f = flagDirty
	}
	base := c.base(addr)
	// Prefer filling an invalid way; the LRU-most invalid way is as good
	// as any.
	for i := c.ways - 1; i >= 0; i-- {
		if c.tags[base+i] == 0 {
			c.shiftIn(base, i, addr+1, c.touches, f)
			return 0, false, false
		}
	}
	victimAddr = c.tags[base+c.ways-1] - 1
	victimDirty = c.flags[base+c.ways-1]&flagDirty != 0
	c.shiftIn(base, c.ways-1, addr+1, c.touches, f)
	c.evicts++
	if victimDirty {
		c.dirtyEv++
	}
	return victimAddr, true, victimDirty
}

// mergeWriteback handles a dirty line arriving from the level above: on
// hit the existing copy is dirtied (without promoting to MRU — a
// write-back is not a demand use); on miss the caller must install.
func (c *Cache) mergeWriteback(addr uint64) bool {
	base := c.base(addr)
	if i := c.find(base, addr); i >= 0 {
		c.flags[base+i] = c.flags[base+i]&^flagEagerClean | flagDirty
		return true
	}
	return false
}

// invalidate removes addr if present, reporting whether the dropped copy
// was dirty (the caller merges that into the outgoing write-back). The
// hole stays at the line's stack position until an install shifts past
// it, exactly like the pre-flattening slice implementation.
func (c *Cache) invalidate(addr uint64) (present, dirty bool) {
	base := c.base(addr)
	i := c.find(base, addr)
	if i < 0 {
		return false, false
	}
	dirty = c.flags[base+i]&flagDirty != 0
	c.tags[base+i], c.last[base+i], c.flags[base+i] = 0, 0, 0
	return true, dirty
}

// contains reports whether addr is cached (tests and invariants).
func (c *Cache) contains(addr uint64) bool { return c.find(c.base(addr), addr) >= 0 }

// ResetStats zeroes the demand counters (end of warmup). Profiler counts
// are left alone: the profiler follows its own sampling periods.
func (c *Cache) ResetStats() {
	c.hits, c.misses, c.acc, c.fills, c.evicts, c.dirtyEv = 0, 0, 0, 0, 0, 0
}

// DirtyLines counts dirty lines currently resident (tests).
func (c *Cache) DirtyLines() int {
	n := 0
	for _, f := range c.flags {
		if f&flagDirty != 0 {
			n++
		}
	}
	return n
}

func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB %d-way, %d sets}", c.cfg.SizeBytes>>10, c.cfg.Ways, c.nsets)
}
