package workloads

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// BP is Back Propagation (Rodinia): a layer forward pass (each thread
// reduces one weight row against a small, cache-resident input vector)
// followed by the weight-update kernel (read-modify-write of the weight
// matrix) — both strided, fixed-offset loop candidates.
func BP() Workload {
	return Workload{
		Name: "Back Propagation",
		Abbr: "BP",
		Desc: "layer forward pass + weight update over a big weight matrix",
		Build: func(scale float64) (*Instance, error) {
			outUnits := scaled(49152, scale, 256, 128)
			inUnits := 128
			return buildBP(outUnits, inUnits)
		},
	}
}

// bpForwardKernel: out[t] = sum_k w[k*T+t] * in[k]. The weight matrix is
// stored output-unit-major (transposed) so warp lanes coalesce, exactly as
// the Rodinia kernel lays it out.
func bpForwardKernel() *isa.Kernel {
	b := isa.NewBuilder("bp_forward", 5) // r0=w, r1=in, r2=out, r3=K, r4=T
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.MovI(6, 0)       // k
	b.MovF(7, 0)       // acc
	b.Mov(8, isa.R(5)) // widx = t
	b.Label("top")
	b.Shl(9, isa.R(8), isa.Imm(2))
	b.Add(9, isa.R(0), isa.R(9))
	b.Ld(10, isa.R(9), 0) // w[k*T+t]
	b.Shl(11, isa.R(6), isa.Imm(2))
	b.Add(11, isa.R(1), isa.R(11))
	b.Ld(12, isa.R(11), 0) // in[k] (cache resident)
	b.FMA(7, isa.R(10), isa.R(12), isa.R(7))
	b.Add(8, isa.R(8), isa.R(4)) // widx += T
	b.Add(6, isa.R(6), isa.Imm(1))
	b.Setp(13, isa.CmpLT, isa.R(6), isa.R(3))
	b.BraIf(isa.R(13), "top")
	b.Shl(14, isa.R(5), isa.Imm(2))
	b.Add(14, isa.R(2), isa.R(14))
	b.St(isa.R(14), 0, isa.R(7))
	b.Exit()
	return b.MustBuild()
}

// bpUpdateKernel: w[k*T+t] += (lr * delta[t]) * in[k], transposed layout.
func bpUpdateKernel() *isa.Kernel {
	b := isa.NewBuilder("bp_update", 6) // r0=w, r1=in, r2=delta, r3=K, r4=lr, r5=T
	b.Mov(6, isa.Sp(isa.SpGtid))
	b.Shl(7, isa.R(6), isa.Imm(2))
	b.Add(7, isa.R(2), isa.R(7))
	b.Ld(8, isa.R(7), 0) // delta[t]
	b.FMul(8, isa.R(8), isa.R(4))
	b.MovI(9, 0)        // k
	b.Mov(10, isa.R(6)) // widx = t
	b.Label("top")
	b.Shl(11, isa.R(10), isa.Imm(2))
	b.Add(11, isa.R(0), isa.R(11))
	b.Ld(12, isa.R(11), 0) // w
	b.Shl(13, isa.R(9), isa.Imm(2))
	b.Add(13, isa.R(1), isa.R(13))
	b.Ld(14, isa.R(13), 0) // in[k]
	b.FMA(12, isa.R(8), isa.R(14), isa.R(12))
	b.St(isa.R(11), 0, isa.R(12))
	b.Add(10, isa.R(10), isa.R(5)) // widx += T
	b.Add(9, isa.R(9), isa.Imm(1))
	b.Setp(15, isa.CmpLT, isa.R(9), isa.R(3))
	b.BraIf(isa.R(15), "top")
	b.Exit()
	return b.MustBuild()
}

func buildBP(outUnits, inUnits int) (*Instance, error) {
	n := outUnits * inUnits
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	w := at.Alloc("w", uint64(4*n))
	in := at.Alloc("in", uint64(4*inUnits))
	out := at.Alloc("out", uint64(4*outUnits))
	delta := at.Alloc("delta", uint64(4*outUnits))
	r := newRNG(44)
	for i := 0; i < n; i++ {
		storeF32(m, w+uint64(4*i), r.f32()-0.5)
	}
	for i := 0; i < inUnits; i++ {
		storeF32(m, in+uint64(4*i), r.f32())
	}
	for i := 0; i < outUnits; i++ {
		storeF32(m, delta+uint64(4*i), r.f32()-0.5)
	}
	lr := float32(0.25)
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{
			{Kernel: bpForwardKernel(), Grid: outUnits / 128, Block: 128,
				Params: []uint64{w, in, out, uint64(inUnits), uint64(outUnits)}},
			{Kernel: bpUpdateKernel(), Grid: outUnits / 128, Block: 128,
				Params: []uint64{w, in, delta, uint64(inUnits), isa.F32Bits(lr), uint64(outUnits)}},
		},
	}
	inst.Check = func(fm *mem.Flat) error {
		// Forward result of thread 7 (weights were updated afterwards,
		// so recompute from the *updated* weights minus the update).
		t := 7
		d := loadF32(fm, delta+uint64(4*t)) * lr
		var acc float32
		for k := 0; k < inUnits; k++ {
			ik := loadF32(fm, in+uint64(4*k))
			wUpd := loadF32(fm, w+uint64(4*(k*outUnits+t)))
			// wUpd = wOrig + d*ik  =>  wOrig = wUpd - d*ik (float32
			// rounding makes this approximate; tolerance below).
			acc = (wUpd-d*ik)*ik + acc
		}
		got := loadF32(fm, out+uint64(4*t))
		if math.Abs(float64(got-acc)) > 1e-2 {
			return fmt.Errorf("BP: out[%d] = %v, want ~%v", t, got, acc)
		}
		return nil
	}
	return inst.sealed(), nil
}
