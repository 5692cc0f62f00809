package workloads

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

const bfsInf = 0x7FFFFFFF

// BFS is level-synchronous breadth-first search (Rodinia) over a synthetic
// graph in CSR form: one kernel launch per level, one thread per vertex,
// data-dependent gathers through the column array. Its irregularity gives
// it the paper's anomalous tmap behavior — the mapping learned from early
// instances is not the best one for the whole run.
func BFS() Workload {
	return Workload{
		Name: "BFS Graph Traversal",
		Abbr: "BFS",
		Desc: "level-synchronous BFS over a synthetic CSR graph",
		Build: func(scale float64) (*Instance, error) {
			vertices := scaled(196608, scale, 2048, 128)
			degree := 6
			levels := 10
			return buildBFS(vertices, degree, levels)
		},
	}
}

// bfsKernel processes one level: threads whose vertex is on the frontier
// (dist == level) relax their neighbors.
func bfsKernel() *isa.Kernel {
	b := isa.NewBuilder("bfs", 5) // r0=rowptr, r1=col, r2=dist, r3=level, r4=V
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.Setp(6, isa.CmpGE, isa.R(5), isa.R(4))
	b.BraIf(isa.R(6), "done")
	b.Shl(7, isa.R(5), isa.Imm(2))
	b.Add(8, isa.R(2), isa.R(7))
	b.Ld(9, isa.R(8), 0) // dist[v]
	b.Setp(10, isa.CmpNE, isa.R(9), isa.R(3))
	b.BraIf(isa.R(10), "done")
	b.Add(11, isa.R(0), isa.R(7))
	b.Ld(12, isa.R(11), 0)          // e = rowptr[v]
	b.Ld(13, isa.R(11), 4)          // end = rowptr[v+1]
	b.Add(14, isa.R(3), isa.Imm(1)) // level+1
	// Guard the do-while edge loop against empty adjacency lists.
	b.Setp(15, isa.CmpGE, isa.R(12), isa.R(13))
	b.BraIf(isa.R(15), "done")
	b.Label("edge")
	b.Shl(16, isa.R(12), isa.Imm(2))
	b.Add(16, isa.R(1), isa.R(16))
	b.Ld(17, isa.R(16), 0) // nbr = col[e]
	b.Shl(18, isa.R(17), isa.Imm(2))
	b.Add(18, isa.R(2), isa.R(18))
	b.Ld(19, isa.R(18), 0) // dist[nbr]
	b.Setp(20, isa.CmpNE, isa.R(19), isa.Imm(bfsInf))
	b.BraIf(isa.R(20), "next")
	b.St(isa.R(18), 0, isa.R(14))
	b.Label("next")
	b.Add(12, isa.R(12), isa.Imm(1))
	b.Setp(21, isa.CmpLT, isa.R(12), isa.R(13))
	b.BraIf(isa.R(21), "edge")
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

// bfsHost is the reference level-synchronous BFS.
func bfsHost(rowptr, col []uint32, src, levels int) []uint32 {
	dist := make([]uint32, len(rowptr)-1)
	for i := range dist {
		dist[i] = bfsInf
	}
	dist[src] = 0
	for lvl := 0; lvl < levels; lvl++ {
		for v := range dist {
			if dist[v] != uint32(lvl) {
				continue
			}
			for e := rowptr[v]; e < rowptr[v+1]; e++ {
				n := col[e]
				if dist[n] == bfsInf {
					dist[n] = uint32(lvl + 1)
				}
			}
		}
	}
	return dist
}

func buildBFS(vertices, degree, levels int) (*Instance, error) {
	// Synthetic graph: per vertex, `degree` edges — half local (v±small),
	// half uniform random. Deterministic.
	r := newRNG(66)
	rowptr := make([]uint32, vertices+1)
	var col []uint32
	for v := 0; v < vertices; v++ {
		rowptr[v] = uint32(len(col))
		for d := 0; d < degree; d++ {
			var n int
			if d%2 == 0 {
				n = (v + 1 + r.intn(8)) % vertices
			} else {
				n = r.intn(vertices)
			}
			col = append(col, uint32(n))
		}
	}
	rowptr[vertices] = uint32(len(col))

	m := mem.NewFlat()
	at := mem.NewAllocTable()
	rp := at.Alloc("rowptr", uint64(4*(vertices+1)))
	cl := at.Alloc("col", uint64(4*len(col)))
	dist := at.Alloc("dist", uint64(4*vertices))
	for i, v := range rowptr {
		m.Store4(rp+uint64(4*i), v)
	}
	for i, v := range col {
		m.Store4(cl+uint64(4*i), v)
	}
	src := 0
	for i := 0; i < vertices; i++ {
		m.Store4(dist+uint64(4*i), bfsInf)
	}
	m.Store4(dist, 0)

	var launches []exec.Launch
	k := bfsKernel()
	grid := (vertices + 127) / 128
	for lvl := 0; lvl < levels; lvl++ {
		launches = append(launches, exec.Launch{
			Kernel: k, Grid: grid, Block: 128,
			Params: []uint64{rp, cl, dist, uint64(lvl), uint64(vertices)},
		})
	}
	want := bfsHost(rowptr, col, src, levels)
	inst := &Instance{Mem: m, Alloc: at, Launches: launches}
	inst.Check = func(fm *mem.Flat) error {
		for v := 0; v < vertices; v++ {
			if got := fm.Load4(dist + uint64(4*v)); got != want[v] {
				return fmt.Errorf("BFS: dist[%d] = %d, want %d", v, got, want[v])
			}
		}
		return nil
	}
	return inst.sealed(), nil
}
