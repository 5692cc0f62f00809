package workloads

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// LIB is LIBOR Monte Carlo (the paper's running example, Fig. 4): each
// thread owns one path's forward-rate vector L and adjoint L_b and runs the
// two portfolio_b loops — both conditional offloading candidates with five
// live-ins, one load and one store per trip.
func LIB() Workload {
	return Workload{
		Name: "LIBOR Monte Carlo",
		Abbr: "LIB",
		Desc: "two adjoint loops per path (the paper's Fig. 4 candidates)",
		Build: func(scale float64) (*Instance, error) {
			paths := scaled(65536, scale, 256, 128)
			nmat := 32
			nTotal := 64
			return buildLIB(paths, nmat, nTotal)
		},
	}
}

func libKernel() *isa.Kernel {
	// Rate-major layout (L[n*paths + t]) keeps warp lanes coalesced, as
	// the CUDA original does.
	b := isa.NewBuilder("lib", 6) // r0=L, r1=L_b, r2=Nmat, r3=N, r4=vd, r5=paths
	b.Mov(6, isa.Sp(isa.SpGtid))
	// Loop 1: for n in [0,Nmat): L_b[n*P+t] = vd / (1 + 0.05*L[n*P+t])
	b.MovI(7, 0)       // n
	b.Mov(8, isa.R(6)) // idx = t
	b.Label("loop1")
	b.Shl(9, isa.R(8), isa.Imm(2))
	b.Add(10, isa.R(0), isa.R(9))
	b.Ld(11, isa.R(10), 0)
	b.FMA(11, isa.R(11), isa.ImmF(0.05), isa.ImmF(1.0))
	b.FDiv(11, isa.R(4), isa.R(11))
	b.Add(12, isa.R(1), isa.R(9))
	b.St(isa.R(12), 0, isa.R(11))
	b.Add(8, isa.R(8), isa.R(5)) // idx += paths
	b.Add(7, isa.R(7), isa.Imm(1))
	b.Setp(13, isa.CmpLT, isa.R(7), isa.R(2))
	b.BraIf(isa.R(13), "loop1")
	// Loop 2: for n in [Nmat,N): L_b[n*P+t] *= 0.9
	b.Label("loop2")
	b.Shl(9, isa.R(8), isa.Imm(2))
	b.Add(12, isa.R(1), isa.R(9))
	b.Ld(14, isa.R(12), 0)
	b.FMul(14, isa.R(14), isa.ImmF(0.9))
	b.St(isa.R(12), 0, isa.R(14))
	b.Add(8, isa.R(8), isa.R(5))
	b.Add(7, isa.R(7), isa.Imm(1))
	b.Setp(15, isa.CmpLT, isa.R(7), isa.R(3))
	b.BraIf(isa.R(15), "loop2")
	b.Exit()
	return b.MustBuild()
}

func buildLIB(paths, nmat, nTotal int) (*Instance, error) {
	k := libKernel()
	n := paths * nTotal
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	l := at.Alloc("L", uint64(4*n))
	lb := at.Alloc("L_b", uint64(4*n))
	r := newRNG(33)
	for i := 0; i < n; i++ {
		storeF32(m, l+uint64(4*i), 0.02+r.f32()*0.05)
		storeF32(m, lb+uint64(4*i), r.f32())
	}
	vd := float32(-0.73)
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{{
			Kernel: k, Grid: paths / 128, Block: 128,
			Params: []uint64{l, lb, uint64(nmat), uint64(nTotal), isa.F32Bits(vd), uint64(paths)},
		}},
	}
	inst.Check = func(fm *mem.Flat) error {
		for _, t := range []int{0, paths / 3, paths - 1} {
			for nn := 0; nn < nmat; nn++ {
				i := nn*paths + t
				lv := loadF32(fm, l+uint64(4*i))
				want := vd / (lv*0.05 + 1.0)
				got := loadF32(fm, lb+uint64(4*i))
				if float32(math.Abs(float64(got-want))) > 1e-6 {
					return fmt.Errorf("LIB: L_b[%d] = %v, want %v", i, got, want)
				}
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
