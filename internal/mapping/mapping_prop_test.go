package mapping

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAllPoliciesCoverAllStacks: every stack mapping must reach every
// stack over a modest address sweep (no stack can be unreachable).
func TestAllPoliciesCoverAllStacks(t *testing.T) {
	for _, bit := range mappings {
		var seen [Stacks]bool
		for i := range uint64(1 << 12) {
			seen[Decode(i<<LineShift, bit).Stack] = true // line strides vary every candidate bit
		}
		for s, ok := range seen {
			if !ok {
				t.Errorf("bit %d never reaches stack %d", bit, s)
			}
		}
	}
}

// TestAnalyzerBestBitIsArgmax: the analyzer's chosen bit must maximize its
// own selection score (co-location x load-balance guard).
func TestAnalyzerBestBitIsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAnalyzer(nil)
	for inst := 0; inst < 300; inst++ {
		var addrs []uint64
		base := uint64(rng.Intn(1<<20)) << 8
		for k := 0; k < 12; k++ {
			addrs = append(addrs, base+uint64(k)*uint64(1+rng.Intn(3))*512)
		}
		a.ObserveInstance(addrs)
	}
	n := a.Instances()
	best := a.BestBit()
	bestScore := a.score(best-MinBit, n)
	for b := MinBit; b <= MaxBit; b++ {
		if a.score(b-MinBit, n) > bestScore+1e-12 {
			t.Fatalf("bit %d score %.4f beats chosen bit %d (%.4f)",
				b, a.score(b-MinBit, n), best, bestScore)
		}
	}
}

// TestAnalyzerPrefixIsAFreshAnalyzer: the best bit over the first k
// instances (what Fig. 6 reads from the profile) is exactly the choice of
// an analyzer that saw only those k, and so is every score behind it: the
// learning phase and the profile pass choose through the same code.
func TestAnalyzerPrefixIsAFreshAnalyzer(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var insts [][]uint64
	for inst := 0; inst < 200; inst++ {
		var addrs []uint64
		base := uint64(rng.Intn(1<<14)) << uint(7+rng.Intn(8))
		for k := 0; k < 1+rng.Intn(24); k++ {
			addrs = append(addrs, base+uint64(rng.Intn(1<<16)))
		}
		insts = append(insts, addrs)
	}
	all := NewAnalyzer(nil)
	for _, addrs := range insts {
		all.ObserveInstance(addrs)
	}
	for _, k := range []int{1, 2, 3, 10, 57, 199, 200} {
		fresh := NewAnalyzer(nil)
		for _, addrs := range insts[:k] {
			fresh.ObserveInstance(addrs)
		}
		if got, want := all.BestBitOver(k), fresh.BestBit(); got != want {
			t.Errorf("k=%d: best bit over the prefix %d, fresh analyzer %d", k, got, want)
		}
		for i := range numBits {
			if got, want := all.score(i, k), fresh.score(i, k); got != want {
				t.Errorf("k=%d bit %d: prefix score %v, fresh analyzer %v", k, MinBit+i, got, want)
			}
		}
	}
	if got, want := all.BestBitOver(len(insts)+5), all.BestBit(); got != want {
		t.Errorf("k beyond the instances: best bit %d, want all-instance %d", got, want)
	}
}

// TestAnalyzerDedupesLines: an instance's lines count once each, in
// first-access order, and the empty analyzer reports no co-location.
func TestAnalyzerDedupesLines(t *testing.T) {
	a := NewAnalyzer(nil)
	if a.CoLocation(MinBit) != 0 || a.Instances() != 0 {
		t.Fatal("an empty analyzer must report 0 instances and 0 co-location")
	}
	lines := a.ObserveInstance([]uint64{0x1000, 0x1004, 0x2000, 0x1010, 0x3000, 0x207f})
	if want := []uint64{0x1000, 0x2000, 0x3000}; !slices.Equal(lines, want) {
		t.Errorf("deduplicated lines %#x, want %#x", lines, want)
	}
	// Bit 12: 0x1000 homes on stack 1; 0x2000 (stack 2) and 0x3000
	// (stack 3) do not — one of three lines, counted once each.
	if got := a.CoLocation(12); got != 1.0/3 {
		t.Errorf("bit 12 co-location %v, want 1/3", got)
	}
}

// TestOffsetTrackerMixedPairs: one stable pair plus one unstable pair gives
// a fraction strictly between 0 and 1.
func TestOffsetTrackerMixedPairs(t *testing.T) {
	tr := NewOffsetTracker()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		tr.ObserveInstance([]InstanceAccess{
			{PC: 1, Addr: uint64(i) * 256},
			{PC: 2, Addr: uint64(i)*256 + 0x100000},  // fixed delta
			{PC: 3, Addr: uint64(rng.Intn(1 << 30))}, // random delta
		})
	}
	frac, ok := tr.FixedFraction()
	if !ok {
		t.Fatal("tracker should have data")
	}
	if frac <= 0.3 || frac >= 0.9 {
		t.Errorf("mixed fraction = %v, want strictly between the extremes", frac)
	}
	if b := Bucket(frac); b == BucketAllFixed || b == BucketNone {
		t.Errorf("mixed candidate classified as %v", b)
	}
}
