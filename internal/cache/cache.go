// Package cache models set-associative, write-through caches for timing
// purposes. Caches are tag-only: data always lives in the flat functional
// memory (which write-through keeps current), so cache state can never
// corrupt program values — it only decides hit/miss latency and traffic.
// This mirrors the paper's GPU caches (write-through L1/L2, §4.4.2) and is
// what makes the offload coherence protocol a pure timing concern.
package cache

// Cache is a set-associative tag store with LRU replacement. The store is
// allocated by the first Fill: until then tags, valid and stamp are nil and
// the cache answers as an empty one does, so a cache that is never filled
// (the L1 of an SM that never runs a warp) costs only this header.
type Cache struct {
	sets      int
	ways      int
	lineShift uint
	tags      []uint64 // sets*ways entries once allocated
	valid     []bool
	stamp     []uint64 // LRU timestamps
	clock     uint64

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

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.lineShift
	return int(line % uint64(c.sets)), line
}

// Lookup probes the cache without modifying contents; a hit refreshes LRU.
func (c *Cache) Lookup(addr uint64) bool {
	if c.valid == nil { // never filled
		c.Misses++
		return false
	}
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.clock++
			c.stamp[base+w] = c.clock
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
	if c.valid == nil {
		n := c.sets * c.ways
		c.tags, c.valid, c.stamp = make([]uint64, n), make([]bool, n), make([]uint64, n)
	}
	set, tag := c.index(addr)
	base := set * c.ways
	victim := -1
	var oldest uint64 = ^uint64(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag { // already present
			return
		}
	}
	for w := 0; w < c.ways; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.stamp[i] < oldest {
			oldest, victim = c.stamp[i], i
		}
	}
	c.clock++
	c.tags[victim] = tag
	c.valid[victim] = true
	c.stamp[victim] = c.clock
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
	if c.valid == nil { // never filled
		return false
	}
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.valid[base+w] = false
			c.Invalidations++
			return true
		}
	}
	return false
}

// InvalidateAll clears the cache (§4.4.2 step 2: the memory-stack SM
// invalidates its private cache before spawning an offloaded block).
func (c *Cache) InvalidateAll() {
	n := 0
	for i := range c.valid {
		if c.valid[i] {
			c.valid[i] = false
			n++
		}
	}
	c.Invalidations += uint64(n)
}

// Resident counts valid lines (for tests/diagnostics).
func (c *Cache) Resident() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}
