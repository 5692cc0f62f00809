// Package cache models set-associative, write-through caches for timing
// purposes. Caches are tag-only: data always lives in the flat functional
// memory (which write-through keeps current), so cache state can never
// corrupt program values — it only decides hit/miss latency and traffic.
// This mirrors the paper's GPU caches (write-through L1/L2, §4.4.2) and is
// what makes the offload coherence protocol a pure timing concern.
//
// A line costs 12 bytes of host memory: a uint64 tag that holds the line
// number plus one, so 0 marks an empty way and no separate valid bit is
// kept, and a uint32 LRU stamp. Stamps come from a per-cache clock; when it
// would wrap, the stamps of the resident lines are renumbered 1..n in their
// order, which leaves every replacement decision as it was.
package cache

import (
	"math"
	"slices"
)

// Cache is a set-associative tag store with LRU replacement. The store is
// allocated by the first Fill: until then tags and stamp are nil and the
// cache answers as an empty one does, so a cache that is never filled (the
// L1 of an SM that never runs a warp) costs only this header.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // sets*ways entries once allocated: line+1, 0 = empty way
	stamp     []uint32 // LRU stamps, meaningful for non-empty ways
	clock     uint32

	// Stats.
	Hits, Misses, Fills, Invalidations uint64
}

// New creates a cache of totalBytes capacity with the given associativity
// and line size (powers of two).
func New(totalBytes, ways, lineBytes int) *Cache {
	lines := totalBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &Cache{sets: sets, ways: ways, lineShift: shift}
}

// index returns the first way of addr's set and the tag addr's line has
// when resident.
func (c *Cache) index(addr uint64) (base int, tag uint64) {
	line := addr >> c.lineShift
	return int(line%uint64(c.sets)) * c.ways, line + 1
}

// tick advances the LRU clock and returns the new stamp.
func (c *Cache) tick() uint32 {
	if c.clock == math.MaxUint32 {
		c.renumber()
	}
	c.clock++
	return c.clock
}

// renumber replaces the stamps of the resident lines by their ranks 1..n
// and sets the clock to n. Each clock tick stamps one way, so resident
// stamps are distinct and the ranks keep their order exactly.
func (c *Cache) renumber() {
	live := make([]uint32, 0, len(c.tags))
	for i, t := range c.tags {
		if t != 0 {
			live = append(live, c.stamp[i])
		}
	}
	slices.Sort(live)
	for i, t := range c.tags {
		if t != 0 {
			r, _ := slices.BinarySearch(live, c.stamp[i])
			c.stamp[i] = uint32(r) + 1
		}
	}
	c.clock = uint32(len(live))
}

// Lookup probes the cache without modifying contents; a hit refreshes LRU.
func (c *Cache) Lookup(addr uint64) bool {
	if c.tags == nil { // never filled
		c.Misses++
		return false
	}
	base, tag := c.index(addr)
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.stamp[base+i] = c.tick()
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs the line containing addr, evicting LRU if needed.
// Write-through means evictions are silent (no dirty writeback).
func (c *Cache) Fill(addr uint64) {
	if c.tags == nil {
		n := c.sets * c.ways
		c.tags, c.stamp = make([]uint64, n), make([]uint32, n)
	}
	base, tag := c.index(addr)
	victim := -1
	for i := base; i < base+c.ways; i++ {
		switch {
		case c.tags[i] == tag: // already present
			return
		case c.tags[i] == 0 && victim < 0:
			victim = i // the first empty way
		}
	}
	if victim < 0 { // the set is full: evict its least recently used way
		victim = base
		for i := base + 1; i < base+c.ways; i++ {
			if c.stamp[i] < c.stamp[victim] {
				victim = i
			}
		}
	}
	c.tags[victim] = tag
	c.stamp[victim] = c.tick()
	c.Fills++
}

// Access is Lookup followed by Fill on miss; returns whether it hit.
// Models fetch-on-miss with immediate tag allocation (the MSHR layer above
// merges duplicate outstanding lines).
func (c *Cache) Access(addr uint64) bool {
	if c.Lookup(addr) {
		return true
	}
	c.Fill(addr)
	return false
}

// Invalidate drops the line containing addr if present, reporting whether
// it was. Used by the offload coherence protocol (§4.4.2 step 3).
func (c *Cache) Invalidate(addr uint64) bool {
	if c.tags == nil { // never filled
		return false
	}
	base, tag := c.index(addr)
	for i, t := range c.tags[base : base+c.ways] {
		if t == tag {
			c.tags[base+i] = 0
			c.Invalidations++
			return true
		}
	}
	return false
}

// InvalidateAll clears the cache (§4.4.2 step 2: the memory-stack SM
// invalidates its private cache before spawning an offloaded block).
func (c *Cache) InvalidateAll() {
	for i, t := range c.tags {
		if t != 0 {
			c.tags[i] = 0
			c.Invalidations++
		}
	}
}

// Resident counts valid lines (for tests/diagnostics).
func (c *Cache) Resident() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}
