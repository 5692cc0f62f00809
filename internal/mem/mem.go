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

// pageBytes is the backing-store granularity (storage only; it is not the
// mapping granularity, which the mapping package controls by address bits).
const pageBytes = 1 << 16

const pageWords = pageBytes / 4

// Flat is a sparse flat 64-bit byte-addressed memory of 32-bit words.
// The zero value is ready to use. Flat is not safe for concurrent use;
// the simulator is single-threaded by design.
type Flat struct {
	pages map[uint64]*[pageWords]uint32
	// 1-entry lookup cache: GPU access streams are heavily page-local.
	lastTag  uint64
	lastPage *[pageWords]uint32
}

// NewFlat returns an empty memory.
func NewFlat() *Flat {
	return &Flat{pages: make(map[uint64]*[pageWords]uint32), lastTag: ^uint64(0)}
}

func (f *Flat) page(addr uint64) *[pageWords]uint32 {
	tag := addr / pageBytes
	if tag == f.lastTag {
		return f.lastPage
	}
	p, ok := f.pages[tag]
	if !ok {
		p = new([pageWords]uint32)
		f.pages[tag] = p
	}
	f.lastTag, f.lastPage = tag, p
	return p
}

// Load4 reads the 32-bit word at addr (addr is truncated to word align).
// A load never materialises a page: an untouched address reads zero and
// leaves the memory — its page set and the lookup cache — as it was, so a
// stray index or a dry run costs no 64 KB page that every later Clone and
// Equal would then carry.
func (f *Flat) Load4(addr uint64) uint32 {
	tag := addr / pageBytes
	if tag == f.lastTag {
		return f.lastPage[addr%pageBytes/4]
	}
	p, ok := f.pages[tag]
	if !ok {
		return 0
	}
	f.lastTag, f.lastPage = tag, p
	return p[addr%pageBytes/4]
}

// Store4 writes the 32-bit word at addr.
func (f *Flat) Store4(addr uint64, v uint32) {
	f.page(addr)[addr%pageBytes/4] = v
}

// AtomicAdd4 adds v to the word at addr and returns the previous value.
// (The simulator is single-threaded; atomicity here means read-modify-write
// as one operation in simulation order.)
func (f *Flat) AtomicAdd4(addr uint64, v uint32) uint32 {
	p := f.page(addr)
	i := addr % pageBytes / 4
	old := p[i]
	p[i] = old + v
	return old
}

// Clone returns a deep copy of the memory (page-granular memcpy).
func (f *Flat) Clone() *Flat {
	c := NewFlat()
	for tag, p := range f.pages {
		np := new([pageWords]uint32)
		*np = *p
		c.pages[tag] = np
	}
	return c
}

// Snapshot returns a copy of all nonzero words, for comparing final memory
// images between the functional and timing runs.
func (f *Flat) Snapshot() map[uint64]uint32 {
	out := make(map[uint64]uint32)
	for tag, p := range f.pages {
		base := tag * pageBytes
		for i, v := range p {
			if v != 0 {
				out[base+uint64(i*4)] = v
			}
		}
	}
	return out
}

// Equal reports whether two memories hold identical contents, returning the
// first differing address when not. Pages are compared directly; a page
// missing on one side must be all zero on the other.
func Equal(a, b *Flat) (bool, uint64) {
	if ok, addr := pagesSubset(a, b); !ok {
		return false, addr
	}
	return pagesSubset(b, a)
}

var zeroPage [pageWords]uint32

func pagesSubset(a, b *Flat) (bool, uint64) {
	for tag, pa := range a.pages {
		pb, ok := b.pages[tag]
		if !ok {
			pb = &zeroPage
		}
		if *pa == *pb {
			continue
		}
		for i := range pa {
			if pa[i] != pb[i] {
				return false, tag*pageBytes + uint64(i*4)
			}
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

// TouchedBytes sums the sizes of ranges flagged CandidateTouched — the
// volume the delayed host→device copy must move with the learned mapping.
func (t *AllocTable) TouchedBytes() uint64 {
	var n uint64
	for _, r := range t.Ranges {
		if r.CandidateTouched {
			n += r.Size
		}
	}
	return n
}

// StorageBits returns the hardware cost of one table entry in bits, per the
// paper's §6.6 estimate (48-bit VA start + 48-bit length + 1 flag bit).
func StorageBits() int { return 97 }
