package workloads

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// KM is K-means (Rodinia, with Rogers et al.'s global-memory variant): one
// thread per point scans all centroids over all dimensions; point features
// stream from memory with fixed strides, centroids stay cache resident.
func KM() Workload {
	return Workload{
		Name: "K-means",
		Abbr: "KM",
		Desc: "assignment step: nearest centroid per point",
		Build: func(scale float64) (*Instance, error) {
			points := scaled(49152, scale, 256, 128)
			dims := 16
			clusters := 12
			return buildKM(points, dims, clusters)
		},
	}
}

// kmKernel: for each centroid c: dist = sum_j (p[j*P+t]-cent[c*D+j])^2;
// track argmin; store assignment. Points are dimension-major so warp lanes
// coalesce (Rodinia's feature-transposed layout).
func kmKernel() *isa.Kernel {
	b := isa.NewBuilder("km", 6) // r0=pts, r1=cent, r2=assign, r3=D, r4=K, r5=P
	b.Mov(6, isa.Sp(isa.SpGtid))
	b.MovI(8, 0)      // c
	b.MovF(9, 3.0e38) // best distance
	b.MovI(10, 0)     // best cluster
	b.Label("cluster")
	b.Mul(11, isa.R(8), isa.R(3)) // centroid base index
	b.MovI(12, 0)                 // j
	b.MovF(13, 0)                 // dist
	b.Mov(7, isa.R(6))            // pidx = t
	b.Label("dim")
	b.Shl(14, isa.R(7), isa.Imm(2))
	b.Add(14, isa.R(0), isa.R(14))
	b.Ld(15, isa.R(14), 0) // p[j*P+t]
	b.Add(16, isa.R(11), isa.R(12))
	b.Shl(16, isa.R(16), isa.Imm(2))
	b.Add(16, isa.R(1), isa.R(16))
	b.Ld(17, isa.R(16), 0) // cent[c*D+j]
	b.FSub(18, isa.R(15), isa.R(17))
	b.FMA(13, isa.R(18), isa.R(18), isa.R(13))
	b.Add(7, isa.R(7), isa.R(5)) // pidx += P
	b.Add(12, isa.R(12), isa.Imm(1))
	b.Setp(19, isa.CmpLT, isa.R(12), isa.R(3))
	b.BraIf(isa.R(19), "dim")
	// if dist < best { best = dist; bestc = c }
	b.FSetp(20, isa.CmpLT, isa.R(13), isa.R(9))
	b.Selp(9, isa.R(13), isa.R(9), isa.R(20))
	b.Selp(10, isa.R(8), isa.R(10), isa.R(20))
	b.Add(8, isa.R(8), isa.Imm(1))
	b.Setp(21, isa.CmpLT, isa.R(8), isa.R(4))
	b.BraIf(isa.R(21), "cluster")
	b.Shl(22, isa.R(6), isa.Imm(2))
	b.Add(22, isa.R(2), isa.R(22))
	b.St(isa.R(22), 0, isa.R(10))
	b.Exit()
	return b.MustBuild()
}

func buildKM(points, dims, clusters int) (*Instance, error) {
	k := kmKernel()
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	pts := at.Alloc("points", uint64(4*points*dims))
	cent := at.Alloc("centroids", uint64(4*clusters*dims))
	assign := at.Alloc("assign", uint64(4*points))
	r := newRNG(55)
	for i := 0; i < points*dims; i++ {
		storeF32(m, pts+uint64(4*i), r.f32()*10)
	}
	for i := 0; i < clusters*dims; i++ {
		storeF32(m, cent+uint64(4*i), r.f32()*10)
	}
	inst := &Instance{
		Mem: m, Alloc: at,
		Launches: []exec.Launch{{
			Kernel: k, Grid: points / 128, Block: 128,
			Params: []uint64{pts, cent, assign, uint64(dims), uint64(clusters), uint64(points)},
		}},
	}
	inst.Check = func(fm *mem.Flat) error {
		for _, t := range []int{0, points / 2, points - 1} {
			best, bestc := float32(3.0e38), 0
			for c := 0; c < clusters; c++ {
				var d float32
				for j := 0; j < dims; j++ {
					p := loadF32(fm, pts+uint64(4*(j*points+t)))
					q := loadF32(fm, cent+uint64(4*(c*dims+j)))
					diff := p - q
					d = diff*diff + d
				}
				if d < best {
					best, bestc = d, c
				}
			}
			if got := fm.Load4(assign + uint64(4*t)); got != uint32(bestc) {
				return fmt.Errorf("KM: assign[%d] = %d, want %d", t, got, bestc)
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
