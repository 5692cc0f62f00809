package workloads

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// CFD is the Rodinia unstructured-mesh Euler solver's flux step: each cell
// reads its four neighbor indices from the element array, gathers two field
// values per neighbor, and writes a flux — a straight-line block candidate
// with many loads and a mix of fixed-offset (index array, own fields) and
// quasi-regular gathered accesses.
func CFD() Workload {
	return Workload{
		Name: "CFD Solver",
		Abbr: "CFD",
		Desc: "flux computation with neighbor gathers over a structured-ish mesh",
		Build: func(scale float64) (*Instance, error) {
			cells := scaled(262144, scale, 2048, 128)
			width := 256
			return buildCFD(cells, width)
		},
	}
}

// cfdKernel: unrolled over the 4 neighbors.
func cfdKernel() *isa.Kernel {
	b := isa.NewBuilder("cfd", 5) // r0=elem, r1=density, r2=energy, r3=flux, r4=V
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.Setp(6, isa.CmpGE, isa.R(5), isa.R(4))
	b.BraIf(isa.R(6), "done")
	b.Shl(7, isa.R(5), isa.Imm(2))
	b.Add(8, isa.R(1), isa.R(7))
	b.Ld(9, isa.R(8), 0) // own density
	b.Add(10, isa.R(2), isa.R(7))
	b.Ld(11, isa.R(10), 0)          // own energy
	b.MovF(12, 0)                   // flux accumulator
	b.Shl(13, isa.R(5), isa.Imm(4)) // elem row = 4 neighbors * 4 bytes
	b.Add(13, isa.R(0), isa.R(13))
	for nb := 0; nb < 4; nb++ {
		off := int64(4 * nb)
		idx := isa.Reg(14)
		b.Ld(idx, isa.R(13), off) // neighbor index
		b.Shl(15, isa.R(idx), isa.Imm(2))
		b.Add(16, isa.R(1), isa.R(15))
		b.Ld(17, isa.R(16), 0) // density[nbr]
		b.Add(18, isa.R(2), isa.R(15))
		b.Ld(19, isa.R(18), 0) // energy[nbr]
		b.FSub(20, isa.R(17), isa.R(9))
		b.FSub(21, isa.R(19), isa.R(11))
		b.FMA(12, isa.R(20), isa.ImmF(0.3), isa.R(12))
		b.FMA(12, isa.R(21), isa.ImmF(0.7), isa.R(12))
	}
	b.Add(22, isa.R(3), isa.R(7))
	b.St(isa.R(22), 0, isa.R(12))
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

func buildCFD(cells, width int) (*Instance, error) {
	k := cfdKernel()
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	elem := at.Alloc("elem", uint64(16*cells))
	density := at.Alloc("density", uint64(4*cells))
	energy := at.Alloc("energy", uint64(4*cells))
	flux := at.Alloc("flux", uint64(4*cells))
	nbrs := func(v int) [4]int {
		return [4]int{
			(v + 1) % cells,
			(v - 1 + cells) % cells,
			(v + width) % cells,
			(v - width + cells) % cells,
		}
	}
	r := newRNG(77)
	for v := 0; v < cells; v++ {
		for j, n := range nbrs(v) {
			m.Store4(elem+uint64(16*v+4*j), uint32(n))
		}
		storeF32(m, density+uint64(4*v), r.f32())
		storeF32(m, energy+uint64(4*v), r.f32())
	}
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{{
			Kernel: k, Grid: cells / 128, Block: 128,
			Params: []uint64{elem, density, energy, flux, uint64(cells)},
		}},
	}
	inst.Check = func(fm *mem.Flat) error {
		for _, v := range []int{0, cells / 2, cells - 1} {
			d0 := loadF32(fm, density+uint64(4*v))
			e0 := loadF32(fm, energy+uint64(4*v))
			var acc float32
			for _, n := range nbrs(v) {
				dn := loadF32(fm, density+uint64(4*n))
				en := loadF32(fm, energy+uint64(4*n))
				acc = (dn-d0)*0.3 + acc
				acc = (en-e0)*0.7 + acc
			}
			got := loadF32(fm, flux+uint64(4*v))
			if math.Abs(float64(got-acc)) > 1e-4 {
				return fmt.Errorf("CFD: flux[%d] = %v, want %v", v, got, acc)
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
