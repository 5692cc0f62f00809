package cache

import (
	"math/rand"
	"runtime"
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

func (r *refCache) invalidateAll() {
	for _, s := range r.sets_ {
		clear(s)
	}
}

func (r *refCache) resident() int {
	n := 0
	for _, s := range r.sets_ {
		n += len(s)
	}
	return n
}

// cacheOp is one step of an operation stream: kind selects the operation
// (see checkOracle), addr its address.
type cacheOp struct {
	kind int
	addr uint64
}

// checkOracle applies ops to c and to a reference cache of the same shape;
// every observable result must agree, and so must residency after the last.
func checkOracle(t *testing.T, c *Cache, totalBytes, ways, lineBytes int, ops []cacheOp) {
	t.Helper()
	ref := newRef(totalBytes, ways, lineBytes)
	for i, op := range ops {
		var got, want any
		switch op.kind {
		case 0:
			got, want = c.Lookup(op.addr), ref.lookup(op.addr)
		case 1:
			c.Fill(op.addr)
			ref.fill(op.addr)
		case 2:
			hit := ref.lookup(op.addr)
			if !hit {
				ref.fill(op.addr)
			}
			got, want = c.Access(op.addr), hit
		case 3:
			got, want = c.Invalidate(op.addr), ref.invalidate(op.addr)
		case 4:
			c.InvalidateAll()
			ref.invalidateAll()
		default:
			got, want = c.Resident(), ref.resident()
		}
		if got != want {
			t.Fatalf("op %d (kind %d, addr %#x): cache answers %v, oracle %v", i, op.kind, op.addr, got, want)
		}
	}
	if got, want := c.Resident(), ref.resident(); got != want {
		t.Fatalf("after %d ops: resident %d, oracle %d", len(ops), got, want)
	}
}

// randomOps is a stream of n operations over addresses below 1<<14: mostly
// lookups, fills, accesses and invalidations, with a rare InvalidateAll and
// a residency probe.
func randomOps(rng *rand.Rand, n int) []cacheOp {
	ops := make([]cacheOp, n)
	for i := range ops {
		kind := rng.Intn(4)
		switch k := rng.Intn(100); {
		case k == 0:
			kind = 4
		case k < 5:
			kind = 5
		}
		ops[i] = cacheOp{kind: kind, addr: uint64(rng.Intn(1 << 14))}
	}
	return ops
}

// TestCacheMatchesOracle drives both implementations with the same random
// operation stream; every observable result must agree.
func TestCacheMatchesOracle(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		ops := randomOps(rand.New(rand.NewSource(int64(trial))), 5000)
		checkOracle(t, New(4096, 4, 128), 4096, 4, 128, ops) // 32 lines, 8 sets
	}
}

// FuzzCacheMatchesOracle: the input's bytes are an operation stream against
// a 16-line, 2-way cache of 64-byte lines (two bytes an operation: kind,
// then the line, over 32 lines that share the 8 sets).
func FuzzCacheMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 0, 1, 8, 1, 16, 0, 0, 5, 0})
	f.Add([]byte{2, 1, 2, 9, 2, 17, 2, 1, 3, 9, 4, 0, 2, 25, 0, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]cacheOp, 0, len(data)/2)
		for b := data; len(b) >= 2; b = b[2:] {
			ops = append(ops, cacheOp{kind: int(b[0] % 6), addr: uint64(b[1]%32)*64 + uint64(b[1]>>5)})
		}
		checkOracle(t, New(1024, 2, 64), 1024, 2, 64, ops)
	})
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
	if c.tags != nil {
		t.Error("a cache that was never filled holds a tag store")
	}
}

// TestFirstFillAllocatesOnlyTags: the first Fill allocates the tag store and
// nothing else, 8 bytes a line, for an L1's shape and an L2 bank's.
func TestFirstFillAllocatesOnlyTags(t *testing.T) {
	for _, tc := range []struct{ totalBytes, ways, lineBytes int }{
		{32 << 10, 4, 128},  // an L1: 2 KB of tags
		{64 << 10, 16, 128}, // an L2 bank: 4 KB of tags
		{1024, 2, 64},
	} {
		want := uint64(tc.totalBytes / tc.lineBytes * 8)
		got := ^uint64(0)
		for range 5 { // the least of a few tries: the runtime may allocate beside the Fill
			c := New(tc.totalBytes, tc.ways, tc.lineBytes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c.Fill(0x1000)
			runtime.ReadMemStats(&after)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		if got != want {
			t.Errorf("%d B, %d-way, %d B lines: the first Fill allocates %d B, want %d (8 a line)",
				tc.totalBytes, tc.ways, tc.lineBytes, got, want)
		}
	}
}
