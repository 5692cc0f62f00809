package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// TestBaselineSpreadsLines: the interleave spreads consecutive lines evenly
// over the stacks.
func TestBaselineSpreadsLines(t *testing.T) {
	const lines = 1 << 14
	var stacks [Stacks]int
	for i := range uint64(lines) {
		stacks[Decode(i*CacheLineBytes, Interleave).Stack]++
	}
	for s, c := range stacks {
		if c < lines/Stacks-64 || c > lines/Stacks+64 {
			t.Errorf("stack %d gets %d lines, want ~%d", s, c, lines/Stacks)
		}
	}
}

// TestBaselineStableWithinLine: the interleave never splits a cache line
// across stacks.
func TestBaselineStableWithinLine(t *testing.T) {
	f := func(addr uint64) bool {
		base := addr &^ uint64(CacheLineBytes-1)
		return Decode(base, Interleave) == Decode(base+CacheLineBytes-1, Interleave)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestConsecutiveBitsMapping: under bit 12 every address of a 4 KB chunk
// homes on one stack, and four consecutive chunks cover all stacks.
func TestConsecutiveBitsMapping(t *testing.T) {
	s0 := Decode(0, 12).Stack
	for a := uint64(0); a < 4096; a += CacheLineBytes {
		if Decode(a, 12).Stack != s0 {
			t.Fatalf("addr %#x left home stack", a)
		}
	}
	seen := map[int]bool{}
	for chunk := range uint64(Stacks) {
		seen[Decode(chunk*4096, 12).Stack] = true
	}
	if len(seen) != Stacks {
		t.Errorf("%d consecutive chunks cover %d stacks, want %d", Stacks, len(seen), Stacks)
	}
}

// TestVaultOfInRangeAndBalanced: the vault fold stays in range and spreads
// consecutive lines evenly over the vaults.
func TestVaultOfInRangeAndBalanced(t *testing.T) {
	const lines = 1 << 14
	var vaults [Vaults]int
	for i := range uint64(lines) {
		v := Decode(i*CacheLineBytes, Interleave).Vault
		if v < 0 || v >= Vaults {
			t.Fatalf("vault %d out of range", v)
		}
		vaults[v]++
	}
	for v, c := range vaults {
		if c < lines/Vaults-64 || c > lines/Vaults+64 {
			t.Errorf("vault %d gets %d lines, want ~%d", v, c, lines/Vaults)
		}
	}
}

// Plant a workload whose accesses share bit-12-aligned structure: two
// arrays at a 2^20 distance accessed with the same index. The analyzer
// must find a bit that achieves perfect co-location, and prefer it over
// the baseline.
func TestAnalyzerFindsPlantedMapping(t *testing.T) {
	at := mem.NewAllocTable()
	a := at.Alloc("a", 1<<20)
	bAddr := at.Alloc("b", 1<<20)
	an := NewAnalyzer(at)
	rng := rand.New(rand.NewSource(7))
	for inst := 0; inst < 200; inst++ {
		idx := uint64(rng.Intn(1 << 18))
		// Instance touches a[idx..idx+31] and b[idx..idx+31] (words).
		var addrs []uint64
		for l := uint64(0); l < 32; l++ {
			addrs = append(addrs, a+4*(idx+l))
		}
		for l := uint64(0); l < 32; l++ {
			addrs = append(addrs, bAddr+4*(idx+l))
		}
		an.ObserveInstance(addrs)
	}
	best := an.BestBit()
	if co := an.CoLocation(best); co < 0.99 {
		t.Errorf("best bit %d co-location = %v, want ~1.0", best, co)
	}
	// Both ranges must be flagged as candidate-touched.
	for _, name := range []string{"a", "b"} {
		r, err := at.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !r.CandidateTouched {
			t.Errorf("range %q not flagged", name)
		}
	}
}

func TestAnalyzerStorageBits(t *testing.T) {
	// Paper §6.6: 40 bits per instance x 48 warps = 1,920 bits per SM.
	if got := StorageBitsPerSM(48); got != 1920 {
		t.Errorf("analyzer storage = %d bits, want 1920", got)
	}
}

func TestOffsetTrackerFixed(t *testing.T) {
	tr := NewOffsetTracker()
	// ld A[i]; st B[i] with constant &B-&A: all accesses fixed.
	for i := 0; i < 50; i++ {
		tr.ObserveInstance([]InstanceAccess{
			{PC: 4, Addr: 0x1000_0000 + uint64(128*i)},
			{PC: 7, Addr: 0x2000_0000 + uint64(128*i)},
		})
	}
	frac, ok := tr.FixedFraction()
	if !ok || frac != 1.0 {
		t.Errorf("fixed fraction = %v (%v), want 1.0", frac, ok)
	}
	if Bucket(frac) != BucketAllFixed {
		t.Errorf("bucket = %v", Bucket(frac))
	}
}

func TestOffsetTrackerIrregular(t *testing.T) {
	tr := NewOffsetTracker()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		tr.ObserveInstance([]InstanceAccess{
			{PC: 4, Addr: uint64(rng.Intn(1 << 28))},
			{PC: 7, Addr: uint64(rng.Intn(1 << 28))},
		})
	}
	frac, ok := tr.FixedFraction()
	if !ok || frac > 0.1 {
		t.Errorf("irregular fixed fraction = %v, want ~0", frac)
	}
}

func TestOffsetBuckets(t *testing.T) {
	cases := []struct {
		frac float64
		want OffsetBucket
	}{
		{1.0, BucketAllFixed}, {0.8, Bucket75to99}, {0.6, Bucket50to75},
		{0.3, Bucket25to50}, {0.1, Bucket0to25}, {0, BucketNone},
	}
	for _, c := range cases {
		if got := Bucket(c.frac); got != c.want {
			t.Errorf("Bucket(%v) = %v, want %v", c.frac, got, c.want)
		}
	}
	for b := BucketAllFixed; b < NumOffsetBuckets; b++ {
		if b.String() == "" {
			t.Errorf("bucket %d has no label", b)
		}
	}
}

func TestOffsetTrackerEmpty(t *testing.T) {
	tr := NewOffsetTracker()
	if _, ok := tr.FixedFraction(); ok {
		t.Error("empty tracker should report !ok")
	}
	tr.ObserveInstance([]InstanceAccess{{PC: 1, Addr: 0}})
	if _, ok := tr.FixedFraction(); ok {
		t.Error("single-access instances produce no pairs")
	}
}
