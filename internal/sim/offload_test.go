package sim

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mapping"
	"repro/internal/mem"
)

// shortLoopEnv builds a workload whose loop runs below the conditional
// candidate's break-even trip count, so dynamic control must refuse to
// offload it (§3.1.3 / §4.2 step 1).
func shortLoopEnv(t *testing.T, trips int) *workloadEnv {
	t.Helper()
	b := isa.NewBuilder("short", 5) // r0=a, r1=b, r2=out, r3=trips, r4=T
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.MovI(6, 0)
	b.Mov(7, isa.R(5))
	b.MovF(8, 0)
	b.Label("top")
	b.Shl(9, isa.R(7), isa.Imm(2))
	b.Add(10, isa.R(0), isa.R(9))
	b.Ld(11, isa.R(10), 0)
	b.Add(12, isa.R(1), isa.R(9))
	b.Ld(13, isa.R(12), 0)
	b.FMA(8, isa.R(11), isa.R(13), isa.R(8))
	b.Add(7, isa.R(7), isa.R(4))
	b.Add(6, isa.R(6), isa.Imm(1))
	b.Setp(14, isa.CmpLT, isa.R(6), isa.R(3))
	b.BraIf(isa.R(14), "top")
	b.Shl(15, isa.R(5), isa.Imm(2))
	b.Add(15, isa.R(2), isa.R(15))
	b.St(isa.R(15), 0, isa.R(8))
	b.Exit()
	k := b.MustBuild()

	env := &workloadEnv{mem: mem.NewFlat(), alloc: mem.NewAllocTable()}
	threads := 64 * 128
	n := threads * trips
	a := env.alloc.Alloc("a", uint64(4*n))
	bb := env.alloc.Alloc("b", uint64(4*n))
	out := env.alloc.Alloc("out", uint64(4*threads))
	env.launches = []exec.Launch{{
		Kernel: k, Grid: 64, Block: 128,
		Params: []uint64{a, bb, out, uint64(trips), uint64(threads)},
	}}
	return env
}

// TestConditionalGateBlocksShortLoops: with a trip count below the
// compiler's threshold, controlled offloading must keep everything on the
// main GPU and count the skips.
func TestConditionalGateBlocksShortLoops(t *testing.T) {
	env := shortLoopEnv(t, 2) // threshold for this loop is > 2
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	sys := runSim(t, cfg, env)
	st := sys.Stats()
	if st.OffloadsSent != 0 {
		t.Errorf("short loop offloaded %d times; conditional gate failed", st.OffloadsSent)
	}
	if st.OffloadsSkippedCond == 0 {
		t.Error("conditional skips not counted")
	}
}

// TestConditionalGateAdmitsLongLoops: the same kernel with a long trip
// count must offload.
func TestConditionalGateAdmitsLongLoops(t *testing.T) {
	env := shortLoopEnv(t, 64)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	sys := runSim(t, cfg, env)
	if sys.Stats().OffloadsSent == 0 {
		t.Error("long loop never offloaded")
	}
}

// TestPendingCapRespectedUnderControl: pending offloads per stack must
// never exceed the stack SM's warp capacity with controlled offloading.
func TestPendingCapRespectedUnderControl(t *testing.T) {
	env := shortLoopEnv(t, 64)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	sys := newSim(cfg, env)
	cap := cfg.StackSMs * cfg.StackWarps()
	maxSeen := 0
	sys.afterCycle = func(cycle int64) {
		for _, p := range sys.pendingOffloads {
			if p > maxSeen {
				maxSeen = p
			}
			if p > cap {
				t.Fatalf("pending offloads %d exceeds capacity %d after cycle %d", p, cap, cycle)
			}
			if p < 0 {
				t.Fatalf("pending offloads negative after cycle %d", cycle)
			}
		}
	}
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	if maxSeen == 0 {
		t.Error("no offloads observed")
	}
}

// TestWarpCapacityMultiplierAdmitsMore: 4x stack warp capacity must admit
// at least as many offloads as 1x on the same workload.
func TestWarpCapacityMultiplierAdmitsMore(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-system runs")
	}
	env := shortLoopEnv(t, 64)
	one := DefaultConfig()
	one.Mapping = MapBaseline
	s1 := runSim(t, one, env)
	four := DefaultConfig()
	four.Mapping = MapBaseline
	four.StackWarpMult = 4
	s4 := runSim(t, four, env)
	if s4.Stats().OffloadsSent < s1.Stats().OffloadsSent {
		t.Errorf("4x capacity admitted fewer offloads (%d) than 1x (%d)",
			s4.Stats().OffloadsSent, s1.Stats().OffloadsSent)
	}
}

// TestDestStackMatchesFirstAccess: the scalar dry run must pick the stack
// of the candidate's first memory access.
func TestDestStackMatchesFirstAccess(t *testing.T) {
	env := shortLoopEnv(t, 64)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	m := env.mem.Clone()
	alloc := mem.NewAllocTable()
	for _, r := range env.alloc.Ranges {
		alloc.Alloc(r.Name, r.Size)
	}
	sys := New(cfg, m, alloc)
	md, err := sys.metadata(env.launches[0].Kernel)
	if err != nil {
		t.Fatal(err)
	}
	var cand = md.Candidates[0]
	info := md.Info
	// Build a warp positioned at the candidate entry.
	w := exec.NewWarp(env.launches[0].Kernel, info, exec.WarpInfo{
		CtaID: 3, WarpInCTA: 1, NTid: 128, NCtaid: 64,
	}, nil, env.launches[0].Params)
	for g := exec.NewGlobal(m); w.PC() != cand.StartPC; {
		w.Step(g)
	}
	sw := &smWarp{w: *w}
	dest := destOf(sys, sw, cand)
	if dest < 0 || dest >= mapping.Stacks {
		t.Fatalf("dest = %d", dest)
	}
	// The first access of the region is the load of a[idx]; compute it.
	lane := w.LeaderLane()
	idx := w.Regs[7][lane]
	addr := (env.launches[0].Params[0] + 4*idx) &^ uint64(cfg.LineBytes-1)
	if want := sys.place(addr).Stack; dest != want {
		t.Errorf("dest = %d, want %d (stack of first access %#x)", dest, want, addr)
	}
}
