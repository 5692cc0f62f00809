package workloads

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// RD is Parallel Reduction (CUDA SDK): a grid-stride sum with an ALU-rich
// loop body (the original applies an operator per element), followed by a
// shared-memory tree combine. The first kernel's loop is an offload
// candidate whose ALU density reproduces the paper's §6.4 observation that
// RD slows down at 4x stack-SM warp capacity (the stack SM's compute
// pipeline saturates).
func RD() Workload {
	return Workload{
		Name: "Parallel Reduction",
		Abbr: "RD",
		Desc: "grid-stride reduction with ALU-heavy element operator",
		Build: func(scale float64) (*Instance, error) {
			threads := scaled(49152, scale, 256, 128)
			iters := 256
			return buildRD(threads, iters)
		},
	}
}

// rdMainKernel: acc over in[t + k*T] with extra integer mixing per element.
func rdMainKernel() *isa.Kernel {
	b := isa.NewBuilder("rd_main", 4) // r0=in, r1=part, r2=T, r3=iters
	b.Mov(4, isa.Sp(isa.SpGtid))
	b.MovI(5, 0)       // k
	b.MovI(6, 0)       // acc (integer mix to keep the check exact)
	b.Mov(7, isa.R(4)) // idx = t
	b.Label("top")
	b.Shl(8, isa.R(7), isa.Imm(2))
	b.Add(8, isa.R(0), isa.R(8))
	b.Ld(9, isa.R(8), 0)
	// Element operator: dependent integer mixes (ALU-heavy body). The
	// mask keeps 32-bit semantics so the host reference can match.
	b.Mul(9, isa.R(9), isa.Imm(2654435761))
	b.And(9, isa.R(9), isa.Imm(0xFFFFFFFF))
	b.Xor(9, isa.R(9), isa.R(4))
	b.Shr(10, isa.R(9), isa.Imm(7))
	b.Add(9, isa.R(9), isa.R(10))
	b.Add(6, isa.R(6), isa.R(9))
	b.Add(7, isa.R(7), isa.R(2)) // idx += T (grid stride)
	b.Add(5, isa.R(5), isa.Imm(1))
	b.Setp(11, isa.CmpLT, isa.R(5), isa.R(3))
	b.BraIf(isa.R(11), "top")
	b.And(6, isa.R(6), isa.Imm(0xFFFFFFFF))
	b.Shl(12, isa.R(4), isa.Imm(2))
	b.Add(12, isa.R(1), isa.R(12))
	b.St(isa.R(12), 0, isa.R(6))
	b.Exit()
	return b.MustBuild()
}

// rdCombineKernel: shared-memory tree over 128 partials per CTA.
func rdCombineKernel() *isa.Kernel {
	b := isa.NewBuilder("rd_combine", 2) // r0=part, r1=out
	b.SetShared(4 * 128)
	b.Mov(2, isa.Sp(isa.SpTid))
	b.Shl(3, isa.R(2), isa.Imm(2)) // shared offset
	b.Mov(4, isa.Sp(isa.SpGtid))
	b.Shl(4, isa.R(4), isa.Imm(2))
	b.Add(4, isa.R(0), isa.R(4))
	b.Ld(5, isa.R(4), 0)
	b.StShared(isa.R(3), 0, isa.R(5))
	b.Bar()
	b.MovI(6, 64)
	b.Label("loop")
	b.Setp(7, isa.CmpGE, isa.R(2), isa.R(6))
	b.BraIf(isa.R(7), "skip")
	b.Add(8, isa.R(2), isa.R(6))
	b.Shl(8, isa.R(8), isa.Imm(2))
	b.LdShared(9, isa.R(8), 0)
	b.LdShared(10, isa.R(3), 0)
	b.Add(10, isa.R(10), isa.R(9))
	b.StShared(isa.R(3), 0, isa.R(10))
	b.Label("skip")
	b.Bar()
	b.Shr(6, isa.R(6), isa.Imm(1))
	b.Setp(11, isa.CmpGT, isa.R(6), isa.Imm(0))
	b.BraIf(isa.R(11), "loop")
	b.Setp(12, isa.CmpNE, isa.R(2), isa.Imm(0))
	b.BraIf(isa.R(12), "done")
	b.LdShared(13, isa.R(3), 0)
	b.Shl(14, isa.Sp(isa.SpCtaid), isa.Imm(2))
	b.Add(14, isa.R(1), isa.R(14))
	b.St(isa.R(14), 0, isa.R(13))
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

func buildRD(threads, iters int) (*Instance, error) {
	n := threads * iters
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	in := at.Alloc("in", uint64(4*n))
	part := at.Alloc("part", uint64(4*threads))
	out := at.Alloc("out", uint64(4*threads/128))
	r := newRNG(22)
	for i := 0; i < n; i++ {
		m.Store4(in+uint64(4*i), uint32(r.next()))
	}
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{
			{Kernel: rdMainKernel(), Grid: threads / 128, Block: 128,
				Params: []uint64{in, part, uint64(threads), uint64(iters)}},
			{Kernel: rdCombineKernel(), Grid: threads / 128, Block: 128,
				Params: []uint64{part, out}},
		},
	}
	inst.Check = func(fm *mem.Flat) error {
		// Reference for CTA 0's final sum.
		var want uint32
		for t := 0; t < 128; t++ {
			var acc uint32
			for k := 0; k < iters; k++ {
				v := fm.Load4(in + uint64(4*(t+k*threads)))
				v *= 2654435761
				v ^= uint32(t)
				v += v >> 7
				acc += v
			}
			want += acc
		}
		if got := fm.Load4(out); got != want {
			return fmt.Errorf("RD: out[0] = %d, want %d", got, want)
		}
		return nil
	}
	return inst.sealed(), nil
}
