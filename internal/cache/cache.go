// Package cache models set-associative, write-through caches for timing
// purposes. Caches are tag-only: data always lives in the flat functional
// memory (which write-through keeps current), so cache state can never
// corrupt program values — it only decides hit/miss latency and traffic.
// This mirrors the paper's GPU caches (write-through L1/L2, §4.4.2) and is
// what makes the offload coherence protocol a pure timing concern.
//
// A line costs 8 bytes of host memory: a uint64 tag that holds the line
// number plus one, so 0 marks an empty way and no separate valid bit is
// kept. No LRU stamp is stored either: each set keeps its ways in recency
// order, most recently used first, so the least recently used line of a
// full set is its last way. Invalidation leaves a hole that the next fill
// of the set closes; the lines around it keep their order.
package cache

// Cache is a set-associative tag store with LRU replacement. The store is
// allocated by the first Fill: until then tags is nil and the cache answers
// as an empty one does, so a cache that is never filled (the L1 of an SM
// that never runs a warp) costs only this header.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // sets*ways entries once allocated: line+1, 0 = empty way; each set most recent first

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

// set returns the ways of addr's set, most recent first, and the tag addr's
// line has when resident.
func (c *Cache) set(addr uint64) (ways []uint64, tag uint64) {
	line := addr >> c.lineShift
	base := int(line%uint64(c.sets)) * c.ways
	return c.tags[base : base+c.ways], line + 1
}

// Lookup probes the cache without modifying contents; a hit moves the line
// to the front of its set.
func (c *Cache) Lookup(addr uint64) bool {
	if c.tags == nil { // never filled
		c.Misses++
		return false
	}
	set, tag := c.set(addr)
	for i, t := range set {
		if t == tag {
			copy(set[1:i+1], set[:i])
			set[0] = tag
			c.Hits++
			return true
		}
	}
	c.Misses++
	return false
}

// Fill installs the line containing addr at the front of its set, closing
// the set's first empty way or, when the set is full, evicting its last
// (least recently used) way. Write-through means evictions are silent (no
// dirty writeback).
func (c *Cache) Fill(addr uint64) {
	if c.tags == nil {
		c.tags = make([]uint64, c.sets*c.ways)
	}
	set, tag := c.set(addr)
	hole := -1
	for i, t := range set {
		switch {
		case t == tag: // already present
			return
		case t == 0 && hole < 0:
			hole = i // the first empty way
		}
	}
	if hole < 0 { // the set is full: evict its least recently used way
		hole = len(set) - 1
	}
	copy(set[1:hole+1], set[:hole])
	set[0] = tag
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
	set, tag := c.set(addr)
	for i, t := range set {
		if t == tag {
			set[i] = 0
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
