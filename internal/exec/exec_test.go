package exec

import (
	"sync"
	"testing"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mem"
)

func saxpyKernel(t *testing.T) *isa.Kernel {
	t.Helper()
	b := isa.NewBuilder("saxpy", 3) // r0=x, r1=y, r2=n
	b.Mov(3, isa.Sp(isa.SpGtid))
	b.Setp(4, isa.CmpGE, isa.R(3), isa.R(2))
	b.BraIf(isa.R(4), "done")
	b.Shl(5, isa.R(3), isa.Imm(2))
	b.Add(6, isa.R(0), isa.R(5))
	b.Add(7, isa.R(1), isa.R(5))
	b.Ld(8, isa.R(6), 0)
	b.Ld(9, isa.R(7), 0)
	b.FMA(9, isa.R(8), isa.ImmF(2.0), isa.R(9))
	b.St(isa.R(7), 0, isa.R(9))
	b.Label("done")
	b.Exit()
	return b.MustBuild()
}

func TestSaxpyFunctional(t *testing.T) {
	k := saxpyKernel(t)
	m := mem.NewFlat()
	at := mem.NewAllocTable()
	n := 1000
	x := at.Alloc("x", uint64(4*n))
	y := at.Alloc("y", uint64(4*n))
	for i := 0; i < n; i++ {
		m.Store4(x+uint64(4*i), uint32(isa.F32Bits(float32(i))))
		m.Store4(y+uint64(4*i), uint32(isa.F32Bits(1.0)))
	}
	l := Launch{Kernel: k, Grid: 8, Block: 128, Params: []uint64{x, y, uint64(n)}}
	if err := RunFunctional(m, l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := isa.F32FromBits(uint64(m.Load4(y + uint64(4*i))))
		want := 2.0*float32(i) + 1.0
		if got != want {
			t.Fatalf("y[%d] = %v, want %v", i, got, want)
		}
	}
	// Threads beyond n (grid covers 1024) must not have written anything.
	if v := m.Load4(y + uint64(4*n)); v != 0 {
		t.Errorf("y[%d] = %#x, want untouched 0", n, v)
	}
}

// divergence: lanes pick different paths based on lane parity, then join.
func TestDivergenceReconverges(t *testing.T) {
	b := isa.NewBuilder("parity", 1) // r0 = out base
	b.Mov(1, isa.Sp(isa.SpGtid))
	b.And(2, isa.R(1), isa.Imm(1))
	b.BraIfNot(isa.R(2), "even")
	b.MovI(3, 100)
	b.Bra("join")
	b.Label("even")
	b.MovI(3, 200)
	b.Label("join")
	b.Add(3, isa.R(3), isa.R(1)) // all lanes must execute this once
	b.Shl(4, isa.R(1), isa.Imm(2))
	b.Add(4, isa.R(0), isa.R(4))
	b.St(isa.R(4), 0, isa.R(3))
	b.Exit()
	k := b.MustBuild()

	m := mem.NewFlat()
	out := uint64(0x2000_0000)
	l := Launch{Kernel: k, Grid: 1, Block: 64, Params: []uint64{out}}
	if err := RunFunctional(m, l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := uint32(200 + i)
		if i%2 == 1 {
			want = uint32(100 + i)
		}
		if got := m.Load4(out + uint64(4*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// Per-lane loop trip counts force divergence at the loop branch.
func TestDivergentLoopTripCounts(t *testing.T) {
	b := isa.NewBuilder("varloop", 1) // r0 = out
	b.Mov(1, isa.Sp(isa.SpGtid))
	b.Add(2, isa.R(1), isa.Imm(1)) // trips = gtid+1
	b.MovI(3, 0)                   // acc
	b.MovI(4, 0)                   // i
	b.Label("top")
	b.Add(3, isa.R(3), isa.Imm(3))
	b.Add(4, isa.R(4), isa.Imm(1))
	b.Setp(5, isa.CmpLT, isa.R(4), isa.R(2))
	b.BraIf(isa.R(5), "top")
	b.Shl(6, isa.R(1), isa.Imm(2))
	b.Add(6, isa.R(0), isa.R(6))
	b.St(isa.R(6), 0, isa.R(3))
	b.Exit()
	k := b.MustBuild()

	m := mem.NewFlat()
	out := uint64(0x3000_0000)
	if err := RunFunctional(m, Launch{Kernel: k, Grid: 1, Block: 32, Params: []uint64{out}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		want := uint32(3 * (i + 1))
		if got := m.Load4(out + uint64(4*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// Shared-memory tree reduction with barriers across warps in a CTA.
func TestBarrierSharedReduction(t *testing.T) {
	b := isa.NewBuilder("reduce", 2) // r0 = in, r1 = out
	b.SetShared(4 * 128)
	b.Mov(2, isa.Sp(isa.SpTid))
	b.Shl(3, isa.R(2), isa.Imm(2))
	b.Add(4, isa.R(0), isa.R(3))
	// gtid for input index
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.Shl(5, isa.R(5), isa.Imm(2))
	b.Add(5, isa.R(0), isa.R(5))
	b.Ld(6, isa.R(5), 0)
	b.StShared(isa.R(3), 0, isa.R(6))
	b.Bar()
	// for s = 64; s > 0; s >>= 1
	b.MovI(7, 64)
	b.Label("loop")
	b.Setp(8, isa.CmpGE, isa.R(2), isa.R(7))
	b.BraIf(isa.R(8), "skip")
	// shared[tid] += shared[tid+s]
	b.Add(9, isa.R(2), isa.R(7))
	b.Shl(9, isa.R(9), isa.Imm(2))
	b.LdShared(10, isa.R(9), 0)
	b.LdShared(11, isa.R(3), 0)
	b.Add(11, isa.R(11), isa.R(10))
	b.StShared(isa.R(3), 0, isa.R(11))
	b.Label("skip")
	b.Bar()
	b.Shr(7, isa.R(7), isa.Imm(1))
	b.Setp(12, isa.CmpGT, isa.R(7), isa.Imm(0))
	b.BraIf(isa.R(12), "loop")
	// tid 0 writes result
	b.Setp(13, isa.CmpNE, isa.R(2), isa.Imm(0))
	b.BraIf(isa.R(13), "done")
	b.LdShared(14, isa.R(3), 0)
	b.Shl(15, isa.Sp(isa.SpCtaid), isa.Imm(2))
	b.Add(15, isa.R(1), isa.R(15))
	b.St(isa.R(15), 0, isa.R(14))
	b.Label("done")
	b.Exit()
	k := b.MustBuild()

	m := mem.NewFlat()
	in, out := uint64(0x4000_0000), uint64(0x5000_0000)
	for i := 0; i < 256; i++ {
		m.Store4(in+uint64(4*i), uint32(i))
	}
	if err := RunFunctional(m, Launch{Kernel: k, Grid: 2, Block: 128, Params: []uint64{in, out}}); err != nil {
		t.Fatal(err)
	}
	// CTA 0 sums 0..127 = 8128; CTA 1 sums 128..255 = 24512.
	if got := m.Load4(out); got != 8128 {
		t.Errorf("cta0 sum = %d, want 8128", got)
	}
	if got := m.Load4(out + 4); got != 24512 {
		t.Errorf("cta1 sum = %d, want 24512", got)
	}
}

func TestAtomicAdd(t *testing.T) {
	b := isa.NewBuilder("hist", 1) // r0 = counter
	b.AtomAdd(1, isa.R(0), 0, isa.Imm(1))
	b.Exit()
	k := b.MustBuild()
	m := mem.NewFlat()
	ctr := uint64(0x6000_0000)
	if err := RunFunctional(m, Launch{Kernel: k, Grid: 4, Block: 64, Params: []uint64{ctr}}); err != nil {
		t.Fatal(err)
	}
	if got := m.Load4(ctr); got != 256 {
		t.Errorf("counter = %d, want 256", got)
	}
}

// Region execution with only live-in registers must match full execution.
func TestRegionWarpMatchesFullExecution(t *testing.T) {
	// Loop region from a sum kernel (same shape as cfgx's loopKernel).
	b := isa.NewBuilder("sum", 2) // r0 = base, r1 = n
	b.MovI(2, 0)
	b.MovI(3, 0)
	b.Label("top") // pc=2: region start
	b.Shl(4, isa.R(2), isa.Imm(2))
	b.Add(4, isa.R(0), isa.R(4))
	b.Ld(5, isa.R(4), 0)
	b.Add(3, isa.R(3), isa.R(5))
	b.Add(2, isa.R(2), isa.Imm(1))
	b.Setp(6, isa.CmpLT, isa.R(2), isa.R(1))
	b.BraIf(isa.R(6), "top") // pc=8; region end = 9
	b.St(isa.R(0), 0, isa.R(3))
	b.Exit()
	k := b.MustBuild()
	info, err := cfgx.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	liveIn, liveOut, err := info.RegionLiveInOut(2, 9)
	if err != nil {
		t.Fatal(err)
	}

	base := uint64(0x7000_0000)
	n := uint64(17)
	setup := func() *mem.Flat {
		m := mem.NewFlat()
		for i := uint64(0); i < n; i++ {
			m.Store4(base+4*i, uint32(i+1))
		}
		return m
	}

	// Full execution.
	m1 := setup()
	wi := WarpInfo{CtaID: 0, WarpInCTA: 0, NTid: 32, NCtaid: 1}
	w1, g1 := NewWarp(k, info, wi, nil, []uint64{base, n}), NewGlobal(m1)
	for !w1.Done() {
		w1.Step(g1)
	}

	// Split execution: run to region start, ship live-ins to a region
	// warp, run it, copy live-outs back, continue.
	m2 := setup()
	w2, g2 := NewWarp(k, info, wi, nil, []uint64{base, n}), NewGlobal(m2)
	for w2.PC() != 2 {
		w2.Step(g2)
	}
	region := NewRegionWarp(k, info, wi, w2.ActiveMask(), 2, 9, liveIn, w2.Regs)
	steps := 0
	for !region.Done() {
		region.Step(g2)
		if steps++; steps > 10000 {
			t.Fatal("region warp did not terminate")
		}
	}
	for r := 0; r < k.NumRegs; r++ {
		if liveOut&(1<<r) != 0 {
			w2.Regs[r] = region.Regs[r]
		}
	}
	// Skip the main warp past the region.
	w2.stack[len(w2.stack)-1].pc = 9
	for !w2.Done() {
		w2.Step(g2)
	}

	if ok, addr := mem.Equal(m1, m2); !ok {
		t.Fatalf("memory differs at %#x after region execution", addr)
	}
}

func TestLaunchValidation(t *testing.T) {
	k := saxpyKernel(t)
	bad := []Launch{
		{Kernel: nil, Grid: 1, Block: 32},
		{Kernel: k, Grid: 0, Block: 32},
		{Kernel: k, Grid: 1, Block: 33},
		{Kernel: k, Grid: 1, Block: 32, Params: []uint64{1, 2, 3, 4}},
	}
	for i, l := range bad {
		if err := RunFunctional(mem.NewFlat(), l); err == nil {
			t.Errorf("launch %d should fail validation", i)
		}
	}
}

func TestInactiveTailLanes(t *testing.T) {
	// Block of 32 but a grid-stride store guarded by gtid<n with n=40:
	// warp 1 of CTA covers tid 32..63, only 40-63 inactive.
	b := isa.NewBuilder("tail", 2)
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.Setp(3, isa.CmpGE, isa.R(2), isa.R(1))
	b.BraIf(isa.R(3), "out")
	b.Shl(4, isa.R(2), isa.Imm(2))
	b.Add(4, isa.R(0), isa.R(4))
	b.St(isa.R(4), 0, isa.Imm(7))
	b.Label("out")
	b.Exit()
	k := b.MustBuild()
	m := mem.NewFlat()
	out := uint64(0x8000_0000)
	if err := RunFunctional(m, Launch{Kernel: k, Grid: 1, Block: 64, Params: []uint64{out, 40}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := uint32(0)
		if i < 40 {
			want = 7
		}
		if got := m.Load4(out + uint64(4*i)); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestLiteralKernelSharedByConcurrentWarps: a kernel written as a struct
// literal needs no constructor step, and warps created at once on several
// goroutines — Systems running side by side in tomserve share their
// workload's kernels — all find the same lowered program. Run under -race.
func TestLiteralKernelSharedByConcurrentWarps(t *testing.T) {
	k := &isa.Kernel{Name: "literal", NumRegs: 4, NumParams: 1, Instrs: []isa.Instr{
		{Op: isa.OpMov, Dst: 1, HasDst: true, A: isa.Sp(isa.SpGtid)},
		{Op: isa.OpShl, Dst: 2, HasDst: true, A: isa.R(1), B: isa.Imm(2)},
		{Op: isa.OpAdd, Dst: 2, HasDst: true, A: isa.R(0), B: isa.R(2)},
		{Op: isa.OpStGlobal, A: isa.R(2), B: isa.R(1)},
		{Op: isa.OpExit},
	}}
	info, err := cfgx.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	const workers, base = 8, 0x1000
	progs := make([]*isa.Program, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := mem.NewFlat()
			w, g := NewWarp(k, info, WarpInfo{CtaID: i, NTid: 32, NCtaid: workers}, nil, []uint64{base}), NewGlobal(m)
			for !w.Done() {
				w.Step(g)
			}
			for lane := 0; lane < isa.WarpSize; lane++ {
				gtid := uint32(i*32 + lane)
				if got := m.Load4(base + 4*uint64(gtid)); got != gtid {
					t.Errorf("worker %d lane %d stored %d, want %d", i, lane, got, gtid)
				}
			}
			progs[i] = k.Program()
		}()
	}
	wg.Wait()
	for i, p := range progs {
		if p != progs[0] {
			t.Errorf("worker %d saw a different lowered program", i)
		}
	}
}

// TestSkipToReconvergencePops: SkipTo lands where the main SM resumes after
// an offloaded region. When that is the current entry's reconvergence point
// the entry is finished, and the warp must say so without being stepped: a
// region warp skipped to its end is done, a diverged path skipped to the
// join hands over to the other path.
func TestSkipToReconvergencePops(t *testing.T) {
	b := isa.NewBuilder("skip", 0)
	b.Mov(1, isa.Sp(isa.SpLane))
	b.And(2, isa.R(1), isa.Imm(1))
	b.BraIf(isa.R(2), "odd")
	b.Add(3, isa.R(3), isa.Imm(1)) // pc 3: even lanes
	b.Bra("join")
	b.Label("odd")
	b.Add(3, isa.R(3), isa.Imm(2)) // pc 5: odd lanes
	b.Label("join")
	b.Exit() // pc 6
	k := b.MustBuild()
	info, err := cfgx.Analyze(k)
	if err != nil {
		t.Fatal(err)
	}
	wi := WarpInfo{NTid: 32, NCtaid: 1}

	region := NewRegionWarp(k, info, wi, 0xffff_ffff, 0, 3, 0, make([][isa.WarpSize]uint64, k.NumRegs))
	region.SkipTo(3)
	if !region.Done() || region.PC() != -1 || region.ActiveMask() != 0 {
		t.Fatalf("region warp skipped to its end: done=%v pc=%d mask=%#x", region.Done(), region.PC(), region.ActiveMask())
	}

	w, g := NewWarp(k, info, wi, nil, nil), NewGlobal(mem.NewFlat())
	for i := 0; i < 3; i++ {
		w.Step(g)
	}
	if w.PC() != 5 || w.ActiveMask() != 0xaaaa_aaaa {
		t.Fatalf("after the branch: pc %d mask %#x, want the odd path at pc 5", w.PC(), w.ActiveMask())
	}
	w.SkipTo(6)
	if w.PC() != 3 || w.ActiveMask() != 0x5555_5555 {
		t.Fatalf("odd path skipped to the join: pc %d mask %#x, want the even path at pc 3", w.PC(), w.ActiveMask())
	}
}
