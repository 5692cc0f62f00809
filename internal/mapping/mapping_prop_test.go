package mapping

import (
	"math/rand"
	"testing"
)

// TestAllPoliciesCoverAllStacks: every mapping policy must reach every
// stack over a modest address sweep (no stack can be unreachable).
func TestAllPoliciesCoverAllStacks(t *testing.T) {
	policies := []Policy{Baseline{Stacks: 4}}
	for b := MinBit; b <= MaxBit; b++ {
		policies = append(policies, ConsecutiveBits{Stacks: 4, Bit: b})
	}
	for _, p := range policies {
		seen := map[int]bool{}
		for i := uint64(0); i < 1<<12; i++ {
			s := p.Stack(i << 7) // line strides vary every candidate bit
			if s < 0 || s > 3 {
				t.Fatalf("%T%+v: stack %d out of range", p, p, s)
			}
			seen[s] = true
		}
		if len(seen) != 4 {
			t.Errorf("%T%+v reaches only %d stacks", p, p, len(seen))
		}
	}
}

// TestAnalyzerBestBitIsArgmax: the analyzer's chosen bit must maximize its
// own selection score (co-location x load-balance guard).
func TestAnalyzerBestBitIsArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewAnalyzer(4, nil)
	for inst := 0; inst < 300; inst++ {
		var addrs []uint64
		base := uint64(rng.Intn(1<<20)) << 8
		for k := 0; k < 12; k++ {
			addrs = append(addrs, base+uint64(k)*uint64(1+rng.Intn(3))*512)
		}
		a.ObserveInstance(addrs)
	}
	best := a.BestBit()
	bestScore := a.ScoreOf(best)
	for b := MinBit; b <= MaxBit; b++ {
		if a.ScoreOf(b) > bestScore+1e-12 {
			t.Fatalf("bit %d score %.4f beats chosen bit %d (%.4f)",
				b, a.ScoreOf(b), best, bestScore)
		}
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
