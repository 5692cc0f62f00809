package workloads

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// HW is Heartwall (Rodinia): template tracking with heavy per-pixel
// arithmetic. Each loaded sample feeds a long dependent FMA chain, so the
// kernel is compute-bound; its loop is still an offload candidate, but
// offloading buys little — reproducing HW's small speedup in the paper.
func HW() Workload {
	return Workload{
		Name: "Heartwall",
		Abbr: "HW",
		Desc: "template correlation: one load feeding eight dependent FMAs",
		Build: func(scale float64) (*Instance, error) {
			pixels := scaled(49152, scale, 256, 128)
			taps := 96
			return buildHW(pixels, taps)
		},
	}
}

func hwKernel() *isa.Kernel {
	b := isa.NewBuilder("hw", 4) // r0=frame, r1=out, r2=P, r3=taps
	b.Mov(4, isa.Sp(isa.SpGtid))
	b.MovI(5, 0)       // k
	b.MovF(6, 0)       // acc
	b.Mov(7, isa.R(4)) // idx
	b.Label("top")
	b.Shl(8, isa.R(7), isa.Imm(2))
	b.Add(8, isa.R(0), isa.R(8))
	b.Ld(9, isa.R(8), 0)
	// Dependent FMA chain: the compute body that dominates HW.
	for i := 0; i < 8; i++ {
		b.FMA(6, isa.R(9), isa.ImmF(0.501), isa.R(6))
		b.FMul(6, isa.R(6), isa.ImmF(0.993))
	}
	b.Add(7, isa.R(7), isa.R(2)) // idx += P
	b.Add(5, isa.R(5), isa.Imm(1))
	b.Setp(10, isa.CmpLT, isa.R(5), isa.R(3))
	b.BraIf(isa.R(10), "top")
	b.Shl(11, isa.R(4), isa.Imm(2))
	b.Add(11, isa.R(1), isa.R(11))
	b.St(isa.R(11), 0, isa.R(6))
	b.Exit()
	return b.MustBuild()
}

func buildHW(pixels, taps int) (*Instance, error) {
	k := hwKernel()
	n := pixels * taps
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	frame := at.Alloc("frame", uint64(4*n))
	out := at.Alloc("out", uint64(4*pixels))
	r := newRNG(88)
	for i := 0; i < n; i++ {
		storeF32(m, frame+uint64(4*i), r.f32())
	}
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{{
			Kernel: k, Grid: pixels / 128, Block: 128,
			Params: []uint64{frame, out, uint64(pixels), uint64(taps)},
		}},
	}
	inst.Check = func(fm *mem.Flat) error {
		for _, t := range []int{3, pixels - 1} {
			var acc float32
			for kk := 0; kk < taps; kk++ {
				v := loadF32(fm, frame+uint64(4*(t+kk*pixels)))
				for i := 0; i < 8; i++ {
					acc = v*0.501 + acc
					acc = acc * 0.993
				}
			}
			got := loadF32(fm, out+uint64(4*t))
			if math.Abs(float64(got-acc)) > 1e-3*math.Abs(float64(acc))+1e-6 {
				return fmt.Errorf("HW: out[%d] = %v, want %v", t, got, acc)
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
