package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/mapping"
	"repro/internal/mem"
)

// mappedSystem returns a system whose allocation "a" carries the learned
// consecutive-bit mapping at bit, as after tmap's copy; "b" stays on the
// baseline interleave.
func mappedSystem(t *testing.T, bit int) (sys *System, a, b uint64) {
	t.Helper()
	alloc := mem.NewAllocTable()
	a = alloc.Alloc("a", 1<<20)
	b = alloc.Alloc("b", 1<<20)
	r, err := alloc.Lookup("a")
	if err != nil {
		t.Fatal(err)
	}
	r.OffloadMapped = true
	cfg := DefaultConfig()
	sys = New(cfg, mem.NewFlat(), alloc)
	sys.offloadBit = bit
	return sys, a, b
}

// TestHybridDispatch: place applies the learned bit mapping to ranges the
// learning phase re-placed and the baseline interleave to everything else
// (§3.2.3).
func TestHybridDispatch(t *testing.T) {
	sys, a, b := mappedSystem(t, 14)
	for off := uint64(0); off < 1<<20; off += 4096 {
		if got, want := sys.place(a+off), mapping.Decode(a+off, 14); got != want {
			t.Fatalf("offload-mapped range used the wrong mapping at +%#x", off)
		}
		if got, want := sys.place(b+off), mapping.Decode(b+off, mapping.Interleave); got != want {
			t.Fatalf("unmapped range used the wrong mapping at +%#x", off)
		}
	}
	// Before a bit is learned, the mapped range is interleaved too.
	sys.offloadBit = mapping.Interleave
	for off := uint64(0); off < 1<<20; off += 4096 {
		if got, want := sys.place(a+off), mapping.Decode(a+off, mapping.Interleave); got != want {
			t.Fatalf("no learned bit: mapped range left the interleave at +%#x", off)
		}
	}
}

// TestHybridNeverPanicsOnArbitraryAddresses includes addresses far outside
// any allocation: those use the interleave and stay in range.
func TestHybridNeverPanicsOnArbitraryAddresses(t *testing.T) {
	sys, a, _ := mappedSystem(t, 9)
	f := func(addr uint64) bool {
		s := sys.place(addr).Stack
		if addr-a >= 1<<20 && s != mapping.Decode(addr, mapping.Interleave).Stack {
			return false
		}
		return s >= 0 && s < mapping.Stacks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
