// Package mem provides the flat global-memory backing store shared by the
// functional interpreter and the timing simulator, plus the GPU driver's
// memory-allocation table from §4.3 of the paper (used by the
// programmer-transparent data-mapping mechanism to decide which address
// ranges get the offload-friendly mapping).
package mem

import (
	"fmt"
	"sort"
)

// PageBytes is the backing-store granularity (storage only; it is not the
// mapping granularity, which the mapping package controls by address bits).
const PageBytes = 1 << 16

// Page is one page of backing store: word i holds the bytes at page base +
// 4i, so the word at addr is Page[addr%PageBytes/4].
type Page [PageBytes / 4]uint32

// pageKey names the page holding addr by the address of the page's last
// byte. No page has key 0, so zeroed lookup caches match nothing.
func pageKey(addr uint64) uint64 { return addr | (PageBytes - 1) }

func pageBase(key uint64) uint64 { return key - (PageBytes - 1) }

// pageRef is one entry of a memory's page table. A shared page may be held by
// other memories too and is never written again; a page that is not shared
// is held by this memory alone and is written in place.
type pageRef struct {
	p      *Page
	shared bool
}

// Flat is a sparse flat 64-bit byte-addressed memory of 32-bit words. The
// zero value is an empty memory. Clone is copy-on-write: a clone and its
// original share every page until one of them stores to it, and that store
// copies the one page first.
//
// Flat is not safe for concurrent use (even loads move the lookup cache);
// the simulator is single-threaded by design. The one exception is a sealed
// memory — one with no page of its own, see Seal — which any number of
// goroutines may Clone and compare with Equal at once, because neither
// writes it.
type Flat struct {
	pages map[uint64]pageRef
	// Lookup caches: GPU access streams are heavily page-local. Loads go
	// through last, which may hold any page of this memory. Stores go
	// through own and then own2, the last two pages a store had to look up in
	// the page table (own the later), which only ever hold pages that are not
	// shared, so a hit needs no second test. Two entries serve a writer that
	// alternates between two arrays — a builder filling a[i] and b[i], a
	// kernel streaming two outputs — without a page-table lookup per word. A
	// hit in either entry writes nothing: swapping them on an own2 hit would
	// write two pointers per store, a GC write barrier each while the
	// collector is marking.
	lastKey uint64
	last    *Page
	ownKey  uint64
	own     *Page
	own2Key uint64
	own2    *Page
}

// NewFlat returns an empty memory.
func NewFlat() *Flat { return new(Flat) }

// storePage is the stores' path past own.
func (f *Flat) storePage(key uint64) *Page {
	if key == f.own2Key {
		return f.own2
	}
	return f.makeWritable(key)
}

// makeWritable is the stores' path past both entries of their lookup cache:
// it creates the page, or replaces a shared page with a private copy, and
// points last and own at the result — a load that follows must not read the
// shared page the copy was made from. own's old page moves to own2, and
// own2's drops out of the cache.
func (f *Flat) makeWritable(key uint64) *Page {
	e, ok := f.pages[key]
	if !ok || e.shared {
		p := new(Page)
		if ok {
			*p = *e.p
		} else if f.pages == nil {
			f.pages = make(map[uint64]pageRef)
		}
		e = pageRef{p: p}
		f.pages[key] = e
	}
	f.lastKey, f.last = key, e.p
	f.own2Key, f.own2 = f.ownKey, f.own
	f.ownKey, f.own = key, e.p
	return e.p
}

// LoadPage returns the page holding addr for reading: the shared zero page
// when the memory has none. A load never materialises a page: a missing page
// leaves the memory — its page set and the lookup caches — as it was, so a
// stray index or a dry run costs no 64 KB page that every later Equal would
// then carry. Nor does a load copy a shared page. The page must not be
// written.
func (f *Flat) LoadPage(addr uint64) *Page {
	key := pageKey(addr)
	if key == f.lastKey {
		return f.last
	}
	e, ok := f.pages[key]
	if !ok {
		return &zeroPage
	}
	f.lastKey, f.last = key, e.p
	return e.p
}

// StorePage returns the page holding addr for writing: one tag compare when
// the page is own, two when it is own2. A missing page is created and a
// shared one copied first, once.
func (f *Flat) StorePage(addr uint64) *Page {
	if key := pageKey(addr); key != f.ownKey {
		return f.storePage(key)
	}
	return f.own
}

// Load4 reads the 32-bit word at addr (addr is truncated to word align).
func (f *Flat) Load4(addr uint64) uint32 { return f.LoadPage(addr)[addr%PageBytes/4] }

// Store4 writes the 32-bit word at addr.
func (f *Flat) Store4(addr uint64, v uint32) { f.StorePage(addr)[addr%PageBytes/4] = v }

// Seal marks every page shared, so that the next store to any of them copies
// it; the contents do not change. Seal, Clone and Equal only read a memory
// that is already sealed, which is what lets goroutines clone one pristine
// image without a lock. The first store unseals it.
func (f *Flat) Seal() {
	for key, e := range f.pages {
		if !e.shared {
			e.shared = true
			f.pages[key] = e
		}
	}
	if f.ownKey != 0 || f.own2Key != 0 { // tested first: sealing a sealed memory must not write it
		f.ownKey, f.own, f.own2Key, f.own2 = 0, nil, 0, nil
	}
}

// Clone returns a memory with the same contents that shares every page with
// f: it copies the page table, not the pages, and leaves both memories
// sealed. Either side pays for a page — one 64 KB copy — the first time it
// stores to it, and the other side never sees that store.
func (f *Flat) Clone() *Flat {
	f.Seal()
	c := &Flat{pages: make(map[uint64]pageRef, len(f.pages))}
	for key, e := range f.pages {
		c.pages[key] = e
	}
	return c
}

// Snapshot returns a copy of all nonzero words, for comparing final memory
// images between the functional and timing runs.
func (f *Flat) Snapshot() map[uint64]uint32 {
	out := make(map[uint64]uint32)
	for key, e := range f.pages {
		base := pageBase(key)
		for i, v := range e.p {
			if v != 0 {
				out[base+uint64(i*4)] = v
			}
		}
	}
	return out
}

// Equal reports whether two memories hold identical contents, returning the
// first differing address when not. Each page the two have in common is
// compared once — a page they share is equal by construction — and a page
// missing on one side must be all zero on the other.
func Equal(a, b *Flat) (bool, uint64) {
	for key, ea := range a.pages {
		pb := &zeroPage
		if eb, ok := b.pages[key]; ok {
			pb = eb.p
		}
		if ok, addr := pageEqual(key, ea.p, pb); !ok {
			return false, addr
		}
	}
	for key, eb := range b.pages {
		if _, ok := a.pages[key]; ok {
			continue
		}
		if ok, addr := pageEqual(key, eb.p, &zeroPage); !ok {
			return false, addr
		}
	}
	return true, 0
}

var zeroPage Page

func pageEqual(key uint64, pa, pb *Page) (bool, uint64) {
	if pa == pb || *pa == *pb {
		return true, 0
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false, pageBase(key) + uint64(i*4)
		}
	}
	return true, 0
}

// AllocBase is the virtual address of the first allocation. Starting well
// above zero keeps address arithmetic honest (base 0 would hide bugs).
const AllocBase = 0x1000_0000

// AllocAlign is the allocation alignment. Like a real driver we hand out
// page-aligned regions, which is what gives inter-array offsets their
// power-of-two factors (§3.2.1 of the paper relies on this).
const AllocAlign = 4096

// Range is one driver allocation: the paper's memory allocation table entry
// (start, length, and the "accessed by an offloading candidate" bit that
// selects the offload-friendly mapping for the range).
type Range struct {
	Name string
	Base uint64
	Size uint64
	// CandidateTouched is set by the Memory Map Analyzer during the
	// learning phase when an offloading-candidate instance accesses the
	// range (§4.3 step 3).
	CandidateTouched bool
	// OffloadMapped is set when the delayed host→device copy placed this
	// range with the learned offload-friendly mapping (§4.3 step 5).
	OffloadMapped bool
}

// AllocTable is the GPU driver's record of allocations (§4.3 step 1).
type AllocTable struct {
	Ranges []Range
	next   uint64
}

// NewAllocTable returns an empty allocation table.
func NewAllocTable() *AllocTable {
	return &AllocTable{next: AllocBase}
}

// Alloc reserves size bytes and returns the base address.
func (t *AllocTable) Alloc(name string, size uint64) uint64 {
	base := (t.next + AllocAlign - 1) / AllocAlign * AllocAlign
	t.next = base + size
	t.Ranges = append(t.Ranges, Range{Name: name, Base: base, Size: size})
	return base
}

// Find returns the range containing addr, or nil.
func (t *AllocTable) Find(addr uint64) *Range {
	i := sort.Search(len(t.Ranges), func(i int) bool {
		return t.Ranges[i].Base+t.Ranges[i].Size > addr
	})
	if i < len(t.Ranges) && addr >= t.Ranges[i].Base {
		return &t.Ranges[i]
	}
	return nil
}

// Lookup returns the range named name.
func (t *AllocTable) Lookup(name string) (*Range, error) {
	for i := range t.Ranges {
		if t.Ranges[i].Name == name {
			return &t.Ranges[i], nil
		}
	}
	return nil, fmt.Errorf("mem: no allocation named %q", name)
}

// StorageBits returns the hardware cost of one table entry in bits, per the
// paper's §6.6 estimate (48-bit VA start + 48-bit length + 1 flag bit).
func StorageBits() int { return 97 }
