package cache

import (
	"math/rand"
	"testing"
)

// refCache is an oracle implementation: a map of resident lines with exact
// LRU ordering, used to cross-check the array-based Cache.
type refCache struct {
	ways, sets, lineShift int
	sets_                 []map[uint64]uint64 // set -> line -> stamp
	clock                 uint64
}

func newRef(totalBytes, ways, lineBytes int) *refCache {
	lines := totalBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := 0
	for 1<<shift < lineBytes {
		shift++
	}
	r := &refCache{ways: ways, sets: sets, lineShift: shift}
	r.sets_ = make([]map[uint64]uint64, sets)
	for i := range r.sets_ {
		r.sets_[i] = map[uint64]uint64{}
	}
	return r
}

func (r *refCache) setOf(addr uint64) (int, uint64) {
	line := addr >> r.lineShift
	return int(line % uint64(r.sets)), line
}

func (r *refCache) lookup(addr uint64) bool {
	s, line := r.setOf(addr)
	if _, ok := r.sets_[s][line]; ok {
		r.clock++
		r.sets_[s][line] = r.clock
		return true
	}
	return false
}

func (r *refCache) fill(addr uint64) {
	s, line := r.setOf(addr)
	if _, ok := r.sets_[s][line]; ok {
		return
	}
	if len(r.sets_[s]) >= r.ways {
		var victim uint64
		oldest := ^uint64(0)
		for l, st := range r.sets_[s] {
			if st < oldest {
				oldest, victim = st, l
			}
		}
		delete(r.sets_[s], victim)
	}
	r.clock++
	r.sets_[s][line] = r.clock
}

func (r *refCache) invalidate(addr uint64) bool {
	s, line := r.setOf(addr)
	if _, ok := r.sets_[s][line]; ok {
		delete(r.sets_[s], line)
		return true
	}
	return false
}

// TestCacheMatchesOracle drives both implementations with the same random
// operation stream; every observable result must agree.
func TestCacheMatchesOracle(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		c := New(4096, 4, 128) // 32 lines, 8 sets
		ref := newRef(4096, 4, 128)
		for op := 0; op < 5000; op++ {
			addr := uint64(rng.Intn(1 << 14))
			switch rng.Intn(4) {
			case 0:
				got, want := c.Lookup(addr), ref.lookup(addr)
				if got != want {
					t.Fatalf("trial %d op %d: Lookup(%#x) = %v, oracle %v", trial, op, addr, got, want)
				}
			case 1:
				c.Fill(addr)
				ref.fill(addr)
			case 2:
				got, want := c.Access(addr), ref.lookup(addr)
				if !want {
					ref.fill(addr)
				}
				if got != want {
					t.Fatalf("trial %d op %d: Access(%#x) = %v, oracle %v", trial, op, addr, got, want)
				}
			case 3:
				got, want := c.Invalidate(addr), ref.invalidate(addr)
				if got != want {
					t.Fatalf("trial %d op %d: Invalidate(%#x) = %v, oracle %v", trial, op, addr, got, want)
				}
			}
		}
		// Final residency must agree.
		total := 0
		for _, s := range ref.sets_ {
			total += len(s)
		}
		if c.Resident() != total {
			t.Fatalf("trial %d: resident %d, oracle %d", trial, c.Resident(), total)
		}
	}
}

// TestNeverFilledCacheIsEmpty: a cache allocates its tag store on its first
// Fill. Before that it must answer as an allocated store with no valid line
// does — the same hits, misses, invalidations and residency after every
// operation of a random stream, the stream's first Fill included.
func TestNeverFilledCacheIsEmpty(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		fresh := New(4096, 4, 128)
		emptied := New(4096, 4, 128)
		emptied.Fill(0)
		emptied.InvalidateAll()
		emptied.Hits, emptied.Misses, emptied.Fills, emptied.Invalidations = 0, 0, 0, 0
		for op := 0; op < 2000; op++ {
			addr := uint64(rng.Intn(1 << 13))
			var got, want any
			switch k := rng.Intn(10); {
			case k < 4:
				got, want = fresh.Lookup(addr), emptied.Lookup(addr)
			case k < 6:
				fresh.Fill(addr)
				emptied.Fill(addr)
			case k < 8:
				got, want = fresh.Invalidate(addr), emptied.Invalidate(addr)
			case k < 9:
				fresh.InvalidateAll()
				emptied.InvalidateAll()
			default:
				got, want = fresh.Resident(), emptied.Resident()
			}
			if got != want {
				t.Fatalf("trial %d op %d (addr %#x): fresh cache answers %v, emptied one %v", trial, op, addr, got, want)
			}
			if fc, ec := counters(fresh), counters(emptied); fc != ec {
				t.Fatalf("trial %d op %d: fresh cache counts %v, emptied one %v", trial, op, fc, ec)
			}
		}
	}
}

func counters(c *Cache) [4]uint64 { return [4]uint64{c.Hits, c.Misses, c.Fills, c.Invalidations} }

// TestNeverFilledCacheAllocatesNothing: the probes an idle SM's L1 still
// receives — a store's LRU touch, a coherence invalidation, the flush at the
// end of the learning phase — leave the tag store unallocated.
func TestNeverFilledCacheAllocatesNothing(t *testing.T) {
	c := New(16<<10, 4, 128)
	for name, probe := range map[string]func(){
		"Lookup":        func() { c.Lookup(0x1000) },
		"Invalidate":    func() { c.Invalidate(0x1000) },
		"InvalidateAll": c.InvalidateAll,
	} {
		if n := testing.AllocsPerRun(100, probe); n != 0 {
			t.Errorf("%s on a never-filled cache allocates %v times per call", name, n)
		}
	}
	if c.valid != nil {
		t.Error("a cache that was never filled holds a tag store")
	}
}
