package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestLoadDoesNotMaterialisePages: loads from untouched addresses read zero
// and leave no trace — no page is inserted, and Equal and Snapshot see the
// memory exactly as before.
func TestLoadDoesNotMaterialisePages(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fresh := NewFlat()
	for i := 0; i < 10_000; i++ {
		if v := fresh.Load4(rng.Uint64() &^ 3); v != 0 {
			t.Fatalf("load %d from a fresh memory = %#x, want 0", i, v)
		}
	}
	if n := len(fresh.pages); n != 0 {
		t.Fatalf("%d loads materialised %d pages in a fresh memory", 10_000, n)
	}

	// A populated memory: stray loads between real accesses must neither add
	// pages nor disturb what the real accesses read and wrote.
	m := NewFlat()
	const base = AllocBase
	for i := uint64(0); i < 64; i++ {
		m.Store4(base+i*PageBytes/2, uint32(i+1))
	}
	before := m.Clone()
	snap := m.Snapshot()
	pages := len(m.pages)
	for i := 0; i < 10_000; i++ {
		if v := m.Load4(base + 1<<40 + rng.Uint64()%(1<<30)&^3); v != 0 {
			t.Fatalf("stray load = %#x, want 0", v)
		}
		j := uint64(rng.Intn(64))
		if v := m.Load4(base + j*PageBytes/2); v != uint32(j+1) {
			t.Fatalf("word %d reads %d after a stray load, want %d", j, v, j+1)
		}
	}
	if len(m.pages) != pages {
		t.Errorf("stray loads grew the memory from %d to %d pages", pages, len(m.pages))
	}
	if ok, addr := Equal(before, m); !ok {
		t.Errorf("Equal changed by loads: first difference at %#x", addr)
	}
	if !reflect.DeepEqual(m.Snapshot(), snap) {
		t.Error("Snapshot changed by loads")
	}
	// The absent page did not displace the lookup cache either: a store right
	// after a stray load still lands in the right page.
	m.Load4(base + 1<<41)
	m.Store4(base, 99)
	if got := m.Load4(base); got != 99 {
		t.Errorf("store after a stray load read back %d, want 99", got)
	}
}

// TestZeroValueIsEmptyMemory: the Flat doc says so. Address 16 is in page 0,
// whose tag a zeroed lookup cache once matched.
func TestZeroValueIsEmptyMemory(t *testing.T) {
	var f Flat
	if v := f.Load4(16); v != 0 {
		t.Fatalf("zero Flat reads %#x, want 0", v)
	}
	f.Store4(16, 7)
	if v := f.Load4(16); v != 7 {
		t.Fatalf("zero Flat reads %d after Store4(16, 7)", v)
	}
}

// TestAlternatingStoresLeaveTheStoreCache: a writer alternating between two
// pages hits the two entries of the store cache and moves neither, so no
// store writes a pointer (a GC write barrier each while the collector marks).
func TestAlternatingStoresLeaveTheStoreCache(t *testing.T) {
	m := NewFlat()
	a, c := uint64(AllocBase), uint64(AllocBase+PageBytes)
	m.Store4(a, 1)
	m.Store4(c, 1)
	want := *m
	for i := uint64(0); i < 1000; i++ {
		m.Store4(a+4*i, uint32(i))
		m.Store4(c+4*i, uint32(i))
	}
	m.Store4(a, 7) // an odd count of stores: a swap on each hit would show
	if m.ownKey != want.ownKey || m.own != want.own || m.own2Key != want.own2Key || m.own2 != want.own2 {
		t.Error("stores that hit the store cache moved its entries")
	}
	if got := m.Load4(a + 4*999); got != 999 {
		t.Errorf("reads %d at the last word stored, want 999", got)
	}
}

// BenchmarkFlatStoreAlternating is SP's Build loop: one word each into two
// arrays, a[i] then b[i], so consecutive stores alternate between two pages.
// Both stay in the store cache; ns/op is per pair of stores.
func BenchmarkFlatStoreAlternating(b *testing.B) {
	const words = 1 << 16 // 256 KB per array: four pages each
	m := NewFlat()
	a, c := uint64(AllocBase), uint64(AllocBase+4*words)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := uint64(i%words) * 4
		m.Store4(a+off, uint32(i))
		m.Store4(c+off, uint32(i))
	}
}
