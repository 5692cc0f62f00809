// Package workloads provides the ten memory-intensive GPU applications of
// the paper's Table 2 (BP, BFS, KM, CFD, HW, LIB, RAY, FWT, SP, RD) as
// deterministic kernels in the project's PTX-like ISA. Each reproduces the
// memory-access structure of the original (strides, indirection through a
// synthetic graph, XOR butterflies, reduction trees, divergence, compute
// intensity) — the properties TOM's mechanisms key on — at sizes that keep
// a full-system simulation tractable.
package workloads

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Instance is a ready-to-run workload: initialized memory, the driver's
// allocation table, and the kernel launch sequence.
type Instance struct {
	Mem      *mem.Flat
	Alloc    *mem.AllocTable
	Launches []exec.Launch
	// Check validates final memory contents (nil = no self-check).
	Check func(m *mem.Flat) error
}

// sealed ends every Build: it seals the image the builder has just filled, so
// that the pristine instance holds no page of its own and Clone below only
// reads it. (A memory that seals itself on its first Clone would be written
// by whichever scheduler worker got there first, under the others' reads.)
func (in *Instance) sealed() *Instance {
	in.Mem.Seal()
	return in
}

// Clone gives a run its own instance with identical inputs. The memory is
// copy-on-write (mem.Flat.Clone): the clone shares every page of the image
// and pays for the pages the run stores to, not for the ones it was given.
// Clone reads only what never changes after Build — the sealed image, range
// names and sizes — so callers may clone a shared pristine instance from
// several goroutines without a lock, as long as nothing writes the pristine
// instance itself.
func (in *Instance) Clone() *Instance {
	m := in.Mem.Clone()
	at := mem.NewAllocTable()
	for i := range in.Alloc.Ranges {
		at.Alloc(in.Alloc.Ranges[i].Name, in.Alloc.Ranges[i].Size)
	}
	return &Instance{Mem: m, Alloc: at, Launches: in.Launches, Check: in.Check}
}

// Workload is a named builder.
type Workload struct {
	Name string // full name, as in Table 2
	Abbr string
	Desc string
	// Build creates an instance; scale multiplies the default problem
	// size (1.0 = benchmark default; tests use smaller values).
	Build func(scale float64) (*Instance, error)
}

// All returns the ten workloads in the paper's presentation order.
func All() []Workload {
	return []Workload{
		BP(), BFS(), KM(), CFD(), HW(), LIB(), RAY(), FWT(), SP(), RD(),
	}
}

// ByAbbr finds a workload by its abbreviation (case-sensitive, e.g. "LIB").
func ByAbbr(abbr string) (Workload, error) {
	for _, w := range All() {
		if w.Abbr == abbr {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown abbreviation %q", abbr)
}

// --- shared helpers ---

// rng is a small deterministic SplitMix64 generator for input synthesis.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) f32() float32 { return float32(r.next()%1000) / 1000.0 }

func storeF32(m *mem.Flat, addr uint64, v float32) {
	m.Store4(addr, uint32(isa.F32Bits(v)))
}

func loadF32(m *mem.Flat, addr uint64) float32 {
	return isa.F32FromBits(uint64(m.Load4(addr)))
}

// scaled returns max(lo, int(v*scale)) rounded down to a multiple of m.
func scaled(v int, scale float64, lo, m int) int {
	n := int(float64(v) * scale)
	if n < lo {
		n = lo
	}
	n -= n % m
	if n < m {
		n = m
	}
	return n
}
