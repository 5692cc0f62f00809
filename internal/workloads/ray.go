package workloads

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// RAY is ray tracing (GPGPU-Sim's benchmark): one thread per pixel tests a
// sphere list with divergent hit handling, then shades from a scattered
// texture — mixed cache-friendly loads, control divergence inside the
// candidate loop, and an irregular final gather.
func RAY() Workload {
	return Workload{
		Name: "RAY Tracing",
		Abbr: "RAY",
		Desc: "sphere-list intersection with divergent hits + texture gather",
		Build: func(scale float64) (*Instance, error) {
			pixels := scaled(49152, scale, 256, 128)
			spheres := 48
			texWords := 1 << 16
			return buildRAY(pixels, spheres, texWords)
		},
	}
}

func rayKernel(texMask int64) *isa.Kernel {
	b := isa.NewBuilder("ray", 5) // r0=spheres, r1=tex, r2=img, r3=S, r4=P
	b.Mov(5, isa.Sp(isa.SpGtid))
	// Ray direction from pixel id.
	b.CvtIF(6, isa.R(5)) // fx
	b.MovI(7, 0)         // s
	b.MovF(8, 3.0e38)    // closest t
	b.MovI(9, 0)         // hit id
	b.Label("sphere")
	// Load sphere record (x, y, z, radius) — 16 B stride, cache friendly.
	b.Shl(10, isa.R(7), isa.Imm(4))
	b.Add(10, isa.R(0), isa.R(10))
	b.Ld(11, isa.R(10), 0)  // x
	b.Ld(12, isa.R(10), 4)  // y
	b.Ld(13, isa.R(10), 8)  // z
	b.Ld(14, isa.R(10), 12) // r
	// Fake intersection math: t = |x - fx*0.001| * y + z.
	b.FMA(15, isa.R(6), isa.ImmF(-0.001), isa.R(11))
	b.FMul(15, isa.R(15), isa.R(15)) // squared (positive)
	b.FMA(15, isa.R(15), isa.R(12), isa.R(13))
	// Divergent hit test: if t < r and t < closest -> update.
	b.FSetp(16, isa.CmpLT, isa.R(15), isa.R(14))
	b.BraIfNot(isa.R(16), "miss")
	b.FSetp(17, isa.CmpLT, isa.R(15), isa.R(8))
	b.Selp(8, isa.R(15), isa.R(8), isa.R(17))
	b.Selp(9, isa.R(7), isa.R(9), isa.R(17))
	b.Label("miss")
	b.Add(7, isa.R(7), isa.Imm(1))
	b.Setp(18, isa.CmpLT, isa.R(7), isa.R(3))
	b.BraIf(isa.R(18), "sphere")
	// Shade: scattered texture fetch indexed by a hash of (pixel, hit).
	b.Mul(19, isa.R(5), isa.Imm(2654435761))
	b.Add(19, isa.R(19), isa.R(9))
	b.And(19, isa.R(19), isa.Imm(texMask))
	b.Shl(19, isa.R(19), isa.Imm(2))
	b.Add(19, isa.R(1), isa.R(19))
	b.Ld(20, isa.R(19), 0)
	b.Shl(21, isa.R(5), isa.Imm(2))
	b.Add(21, isa.R(2), isa.R(21))
	b.St(isa.R(21), 0, isa.R(20))
	b.Exit()
	return b.MustBuild()
}

func buildRAY(pixels, spheres, texWords int) (*Instance, error) {
	texMask := int64(texWords - 1)
	k := rayKernel(texMask)
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	sph := at.Alloc("spheres", uint64(16*spheres))
	tex := at.Alloc("tex", uint64(4*texWords))
	img := at.Alloc("img", uint64(4*pixels))
	r := newRNG(99)
	for s := 0; s < spheres; s++ {
		storeF32(m, sph+uint64(16*s+0), r.f32()*20)
		storeF32(m, sph+uint64(16*s+4), r.f32())
		storeF32(m, sph+uint64(16*s+8), r.f32()*5)
		storeF32(m, sph+uint64(16*s+12), 2+r.f32()*8)
	}
	for i := 0; i < texWords; i++ {
		m.Store4(tex+uint64(4*i), uint32(r.next()))
	}
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{{
			Kernel: k, Grid: pixels / 128, Block: 128,
			Params: []uint64{sph, tex, img, uint64(spheres), uint64(pixels)},
		}},
	}
	inst.Check = func(fm *mem.Flat) error {
		for _, t := range []int{0, pixels - 1} {
			closest, hit := float32(3.0e38), 0
			fx := float32(t)
			for s := 0; s < spheres; s++ {
				x := loadF32(fm, sph+uint64(16*s+0))
				y := loadF32(fm, sph+uint64(16*s+4))
				z := loadF32(fm, sph+uint64(16*s+8))
				rad := loadF32(fm, sph+uint64(16*s+12))
				tt := fx*-0.001 + x
				tt = tt * tt
				tt = tt*y + z
				if tt < rad && tt < closest {
					closest, hit = tt, s
				}
			}
			idx := (uint32(t)*2654435761 + uint32(hit)) & uint32(texMask)
			want := fm.Load4(tex + uint64(4*idx))
			if got := fm.Load4(img + uint64(4*t)); got != want {
				return fmt.Errorf("RAY: img[%d] = %#x, want %#x", t, got, want)
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
