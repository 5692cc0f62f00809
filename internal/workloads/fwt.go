package workloads

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// FWT is Fast Walsh Transform (CUDA SDK): one launch per butterfly stage;
// each thread processes a run of pairs whose partner sits at a power-of-two
// byte offset — the canonical fixed-offset-with-power-of-two-factor access
// pattern that TOM's consecutive-bit mapping captures perfectly.
func FWT() Workload {
	return Workload{
		Name: "Fast Walsh Transform",
		Abbr: "FWT",
		Desc: "butterfly stages with power-of-two partner offsets",
		Build: func(scale float64) (*Instance, error) {
			n := scaled(1<<22, scale, 1<<14, 1<<14)
			// Round to a power of two.
			p := 1
			for p*2 <= n {
				p *= 2
			}
			return buildFWT(p, 6)
		},
	}
}

// fwtKernel processes `pairsPerThread` butterflies at the given stride:
// for q: p = t*ppt + q; i = 2*(p &^ (stride-1)) + (p & (stride-1));
// j = i + stride; (a[i], a[j]) = (a[i]+a[j], a[i]-a[j]).
func fwtKernel() *isa.Kernel {
	b := isa.NewBuilder("fwt", 4) // r0=a, r1=stride, r2=ppt, r3=T
	b.Mov(4, isa.Sp(isa.SpGtid))
	b.Mov(5, isa.R(4))             // p = t (strided by T per trip: coalesced)
	b.MovI(6, 0)                   // q
	b.Sub(7, isa.R(1), isa.Imm(1)) // mask = stride-1
	b.Shl(8, isa.R(1), isa.Imm(2)) // byte stride
	b.Label("top")
	b.And(9, isa.R(5), isa.R(7))  // low = p & mask
	b.Sub(10, isa.R(5), isa.R(9)) // p &^ mask
	b.Shl(10, isa.R(10), isa.Imm(1))
	b.Add(10, isa.R(10), isa.R(9)) // i
	b.Shl(10, isa.R(10), isa.Imm(2))
	b.Add(10, isa.R(0), isa.R(10)) // &a[i]
	b.Add(11, isa.R(10), isa.R(8)) // &a[j]
	b.Ld(12, isa.R(10), 0)
	b.Ld(13, isa.R(11), 0)
	b.FAdd(14, isa.R(12), isa.R(13))
	b.FSub(15, isa.R(12), isa.R(13))
	b.St(isa.R(10), 0, isa.R(14))
	b.St(isa.R(11), 0, isa.R(15))
	b.Add(5, isa.R(5), isa.R(3)) // p += T
	b.Add(6, isa.R(6), isa.Imm(1))
	b.Setp(16, isa.CmpLT, isa.R(6), isa.R(2))
	b.BraIf(isa.R(16), "top")
	b.Exit()
	return b.MustBuild()
}

func buildFWT(n, stages int) (*Instance, error) {
	k := fwtKernel()
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	a := at.Alloc("a", uint64(4*n))
	r := newRNG(111)
	host := make([]float32, n)
	for i := 0; i < n; i++ {
		host[i] = r.f32() - 0.5
		storeF32(m, a+uint64(4*i), host[i])
	}
	pairs := n / 2
	ppt := 16
	threads := pairs / ppt
	var launches []exec.Launch
	stride := 1
	for s := 0; s < stages; s++ {
		launches = append(launches, exec.Launch{
			Kernel: k, Grid: threads / 128, Block: 128,
			Params: []uint64{a, uint64(stride), uint64(ppt), uint64(threads)},
		})
		stride *= 2
	}
	// Host reference.
	stride = 1
	for s := 0; s < stages; s++ {
		for p := 0; p < pairs; p++ {
			low := p & (stride - 1)
			i := (p-low)*2 + low
			j := i + stride
			x, y := host[i], host[j]
			host[i], host[j] = x+y, x-y
		}
		stride *= 2
	}
	inst := &Instance{Mem: m, Alloc: at, Launches: launches}
	inst.Check = func(fm *mem.Flat) error {
		for _, i := range []int{0, 1, n / 3, n - 1} {
			got := loadF32(fm, a+uint64(4*i))
			if math.Abs(float64(got-host[i])) > 1e-4 {
				return fmt.Errorf("FWT: a[%d] = %v, want %v", i, got, host[i])
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
