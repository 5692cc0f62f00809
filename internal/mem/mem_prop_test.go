package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// deepMem is the oracle for copy-on-write Flat: every word in a map, and a
// clone that copies all of them. It is the only deep copy left in the
// repository.
type deepMem map[uint64]uint32

func (d deepMem) clone() deepMem {
	c := make(deepMem, len(d))
	for a, v := range d {
		c[a] = v
	}
	return c
}

// nonzero is what Snapshot should return.
func (d deepMem) nonzero() map[uint64]uint32 {
	out := make(map[uint64]uint32)
	for a, v := range d {
		if v != 0 {
			out[a] = v
		}
	}
	return out
}

// propAddrs is the address universe of the property test: a few words at the
// start, middle and end of a few pages, so that operations collide on pages
// and on words. Page 0 is in it because a zeroed lookup cache must not match
// it; the last page of the address space because its key is all ones.
func propAddrs() []uint64 {
	var addrs []uint64
	for _, base := range propPages {
		for _, off := range propOffsets {
			addrs = append(addrs, base+off)
		}
	}
	return addrs
}

var (
	propPages   = []uint64{0, AllocBase, AllocBase + PageBytes, AllocBase + 2*PageBytes, 1 << 40, ^uint64(0) &^ (PageBytes - 1)}
	propOffsets = []uint64{0, 4, PageBytes / 2, PageBytes - 4}
)

// TestCloneMatchesDeepCopyModel drives a growing family of memories — a
// parent, its clones, clones of clones — with random stores, atomic adds,
// loads, clones and comparisons, each mirrored on a deep-copy model. After
// every write the written word is read back from every memory of the family:
// the writer must see it (through whichever lookup cache it had warm) and no
// relative may. Some writes come in round-robin bursts over two to four
// pages, the pattern of a builder filling several arrays at once: over two
// pages they hit the store cache's second entry and swap the two, over more
// they evict it, and a clone between bursts (which seals) must empty both.
func TestCloneMatchesDeepCopyModel(t *testing.T) {
	addrs := propAddrs()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mems := []*Flat{NewFlat()}
		models := []deepMem{{}}
		if seed%2 == 1 {
			mems[0] = new(Flat) // the zero value is an empty memory too
		}
		checkWord := func(op int, addr uint64) {
			t.Helper()
			for i, m := range mems {
				if got, want := m.Load4(addr), models[i][addr]; got != want {
					t.Fatalf("seed %d op %d: memory %d reads %#x at %#x, model %#x", seed, op, i, got, addr, want)
				}
			}
		}
		for op := 0; op < 4000; op++ {
			i := rng.Intn(len(mems))
			m, model := mems[i], models[i]
			addr := addrs[rng.Intn(len(addrs))]
			switch k := rng.Intn(16); {
			case k < 5:
				v := uint32(rng.Intn(4)) // zeros too: an all-zero page equals an absent one
				m.Store4(addr, v)
				model[addr] = v
				checkWord(op, addr)
			case k < 8:
				v := rng.Uint32()
				if got, want := atomicAdd(m, addr, v), model[addr]; got != want {
					t.Fatalf("seed %d op %d: atomic add at %#x returned %#x, model %#x", seed, op, addr, got, want)
				}
				model[addr] += v
				checkWord(op, addr)
			case k < 9:
				pages := rng.Perm(len(propPages))[:2+rng.Intn(3)]
				for j := 0; j < 4*len(pages); j++ {
					a := propPages[pages[j%len(pages)]] + propOffsets[rng.Intn(len(propOffsets))]
					v := rng.Uint32()
					if j%5 == 4 {
						atomicAdd(m, a, v)
						model[a] += v
					} else {
						m.Store4(a, v)
						model[a] = v
					}
					checkWord(op, a)
				}
			case k < 13:
				if got, want := m.Load4(addr), model[addr]; got != want {
					t.Fatalf("seed %d op %d: Load4(%#x) = %#x, model %#x", seed, op, addr, got, want)
				}
			case k < 14:
				c, cm := m.Clone(), model.clone()
				if len(mems) < 8 {
					mems, models = append(mems, c), append(models, cm)
				} else {
					j := rng.Intn(len(mems))
					mems[j], models[j] = c, cm
				}
			default:
				j := rng.Intn(len(mems))
				ok, at := Equal(m, mems[j])
				want := reflect.DeepEqual(model.nonzero(), models[j].nonzero())
				if ok != want {
					t.Fatalf("seed %d op %d: Equal(%d, %d) = %v, models say %v", seed, op, i, j, ok, want)
				}
				if !ok && model[at] == models[j][at] {
					t.Fatalf("seed %d op %d: Equal(%d, %d) names %#x, where the models agree", seed, op, i, j, at)
				}
			}
		}
		for i, m := range mems {
			for _, addr := range addrs {
				if got, want := m.Load4(addr), models[i][addr]; got != want {
					t.Fatalf("seed %d: memory %d ends with %#x at %#x, model %#x", seed, i, got, addr, want)
				}
			}
			if got, want := m.Snapshot(), models[i].nonzero(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: memory %d Snapshot has %d words, model %d", seed, i, len(got), len(want))
			}
		}
	}
}

// TestCloneSharesUntilStore pins the cases the random test only reaches by
// chance, and the sharing itself, which the model cannot see.
func TestCloneSharesUntilStore(t *testing.T) {
	const a, b = AllocBase, AllocBase + PageBytes // two pages
	parent := NewFlat()
	parent.Store4(a, 1)
	parent.Store4(b, 2)
	child := parent.Clone()
	samePage := func(x, y *Flat, addr uint64) bool {
		return x.pages[pageKey(addr)].p == y.pages[pageKey(addr)].p
	}
	if !samePage(parent, child, a) || !samePage(parent, child, b) {
		t.Fatal("a fresh clone does not share its parent's pages")
	}

	// Load, store, load on one shared page: the first load warms the read
	// cache with the shared page, the store copies it, and the second load
	// must read the copy.
	if got := child.Load4(a); got != 1 {
		t.Fatalf("child reads %d before its store, want 1", got)
	}
	child.Store4(a+4, 7)
	if got := child.Load4(a + 4); got != 7 {
		t.Errorf("child reads %d after its store, want 7 (stale read cache)", got)
	}
	if got := parent.Load4(a + 4); got != 0 {
		t.Errorf("parent reads %d where only the child stored", got)
	}
	if samePage(parent, child, a) {
		t.Error("the child stored into a page it still shares")
	}
	if !samePage(parent, child, b) {
		t.Error("a store to one page copied another")
	}

	// The parent written after it was cloned: it copies too, and the clone
	// keeps the old contents.
	parent.Load4(b)
	atomicAdd(parent, b, 40)
	if got := parent.Load4(b); got != 42 {
		t.Errorf("parent reads %d after its atomic add, want 42", got)
	}
	if got := child.Load4(b); got != 2 {
		t.Errorf("child reads %d after the parent's atomic add, want 2", got)
	}

	// A clone of a clone, written on both sides.
	grand := child.Clone()
	if !samePage(child, grand, a) {
		t.Fatal("a clone of a clone does not share")
	}
	child.Store4(a, 100) // the page was child's own until grand was cloned from it
	grand.Store4(a, 200)
	for _, tc := range []struct {
		name string
		m    *Flat
		want uint32
	}{{"parent", parent, 1}, {"child", child, 100}, {"grandchild", grand, 200}} {
		if got := tc.m.Load4(a); got != tc.want {
			t.Errorf("%s reads %d at the thrice-written word, want %d", tc.name, got, tc.want)
		}
	}
	if got := grand.Load4(a + 4); got != 7 {
		t.Errorf("grandchild lost the child's earlier store: reads %d, want 7", got)
	}

	// Loads never copy: a clone that only reads still shares everything.
	reader := grand.Clone()
	for _, addr := range []uint64{a, a + 4, b, b + PageBytes} {
		reader.Load4(addr)
	}
	if len(reader.pages) != len(grand.pages) || !samePage(reader, grand, a) || !samePage(reader, grand, b) {
		t.Error("loads copied or created pages in a clone")
	}
}

// TestSealedCloneOnlyReads: cloning a sealed memory leaves every field of it
// as it was — the property that makes concurrent Clone of a pristine image
// safe (the race detector checks the same thing in internal/workloads).
func TestSealedCloneOnlyReads(t *testing.T) {
	m := NewFlat()
	for i := uint64(0); i < 8; i++ {
		m.Store4(AllocBase+i*PageBytes, uint32(i))
	}
	m.Seal()
	if m.ownKey != 0 || m.own != nil || m.own2Key != 0 || m.own2 != nil {
		t.Fatal("Seal left the write cache holding a page")
	}
	for key, e := range m.pages {
		if !e.shared {
			t.Fatalf("Seal left page %#x unshared", pageBase(key))
		}
	}
	lastKey, last := m.lastKey, m.last
	c := m.Clone()
	if m.lastKey != lastKey || m.last != last || m.ownKey != 0 || m.own2Key != 0 {
		t.Error("Clone moved a lookup cache of a sealed memory")
	}
	c.Store4(AllocBase, 9)
	if got := m.Load4(AllocBase); got != 0 {
		t.Errorf("sealed memory reads %d after its clone's store, want 0", got)
	}
}

// atomicAdd is the interpreter's atom.add on one word: a read-modify-write
// on the page StorePage returns.
func atomicAdd(m *Flat, addr uint64, v uint32) uint32 {
	p := m.StorePage(addr)
	old := p[addr%PageBytes/4]
	p[addr%PageBytes/4] = old + v
	return old
}
