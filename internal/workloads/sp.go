package workloads

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// SP is Scalar Product (CUDA SDK): each thread grid-strides over two
// streamed arrays — the archetypal bandwidth-bound kernel with one big
// conditional loop candidate and perfectly fixed inter-array offsets.
func SP() Workload {
	return Workload{
		Name: "Scalar Product",
		Abbr: "SP",
		Desc: "streaming dot products, grid-stride (coalesced) per thread",
		Build: func(scale float64) (*Instance, error) {
			threads := scaled(49152, scale, 256, 128)
			chunk := 256
			return buildSP(threads, chunk)
		},
	}
}

// spKernel: grid-stride loop so warp lanes access consecutive words:
// acc += a[t + k*T] * b[t + k*T].
func spKernel() *isa.Kernel {
	b := isa.NewBuilder("sp", 5) // r0=a, r1=b, r2=out, r3=chunk, r4=T
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.Mov(6, isa.R(5)) // idx
	b.MovI(7, 0)       // k
	b.MovF(8, 0)       // acc
	b.Label("top")
	b.Shl(9, isa.R(6), isa.Imm(2))
	b.Add(10, isa.R(0), isa.R(9))
	b.Ld(11, isa.R(10), 0)
	b.Add(12, isa.R(1), isa.R(9))
	b.Ld(13, isa.R(12), 0)
	b.FMA(8, isa.R(11), isa.R(13), isa.R(8))
	b.Add(6, isa.R(6), isa.R(4)) // idx += T
	b.Add(7, isa.R(7), isa.Imm(1))
	b.Setp(14, isa.CmpLT, isa.R(7), isa.R(3))
	b.BraIf(isa.R(14), "top")
	b.Shl(15, isa.R(5), isa.Imm(2))
	b.Add(15, isa.R(2), isa.R(15))
	b.St(isa.R(15), 0, isa.R(8))
	b.Exit()
	return b.MustBuild()
}

func buildSP(threads, chunk int) (*Instance, error) {
	k := spKernel()
	n := threads * chunk
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	a := at.Alloc("a", uint64(4*n))
	bb := at.Alloc("b", uint64(4*n))
	out := at.Alloc("out", uint64(4*threads))
	r := newRNG(11)
	for i := 0; i < n; i++ {
		storeF32(m, a+uint64(4*i), r.f32())
		storeF32(m, bb+uint64(4*i), r.f32())
	}
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{{
			Kernel: k, Grid: threads / 128, Block: 128,
			Params: []uint64{a, bb, out, uint64(chunk), uint64(threads)},
		}},
	}
	inst.Check = func(fm *mem.Flat) error {
		// Spot-check a few threads against a float32 reference.
		for _, t := range []int{0, 1, threads / 2, threads - 1} {
			var acc float32
			for k := 0; k < chunk; k++ {
				i := t + k*threads
				acc = loadF32(fm, a+uint64(4*i))*loadF32(fm, bb+uint64(4*i)) + acc
			}
			if got := loadF32(fm, out+uint64(4*t)); got != acc {
				return fmt.Errorf("SP: out[%d] = %v, want %v", t, got, acc)
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
