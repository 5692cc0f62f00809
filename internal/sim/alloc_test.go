package sim

import (
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// TestSteadyStateAllocBudget keeps the timing model's host allocation under
// committed ceilings, so a regression fails `go test` and not only the
// benchmark's host_alloc_b_per_winstr. One cell that offloads everything
// (stack SMs, offload jobs, cross-stack flights), one baseline cell that
// stores to every page of its image (L2 misses over the GPU links), one
// that stores to one page of 45, the read-mostly shape copy-on-write images
// are for, one compute cell whose 19 CTAs leave 49 of 68 main SMs idle, and
// one cell of two kernels: heap bytes and objects allocated by
// Clone+New+Run — what a session pays per cell, the run's private copies of
// the pages it writes included — per simulated warp-instruction. The counts
// repeat from run to run to three digits, and the ceilings sit about 10 %
// above what the cells allocate (43.9, 9.2, 4.8, 5.2 and 9.6 B; 0.142,
// 0.030, 0.016, 0.013 and 0.014 objects). BFS's byte ceiling is 4 %: it
// keeps the most warps, and a buffer that every warp owns again (a 32-entry
// lane access buffer was 3.8 B there) must fail it, as must a warp or CTA
// context allocated per dispatch rather than recycled (54.0 B and 0.210
// objects, when a warp's scheduling shell was). KM's fails if an idle
// SM allocates its L1 tag store again (6.3 B with every tag store built by
// New). BP's second kernel uses 16 registers after the first's 15; its
// ceiling fails if that launch allocates its warps' register files again
// rather than reusing the first launch's, whose size class holds 16 (about
// 1.5 B more). A per-SM timer ring beside the wheel fails every object
// ceiling (BFS 0.312).
func TestSteadyStateAllocBudget(t *testing.T) {
	noctrlBmap := DefaultConfig()
	noctrlBmap.Policy = "noctrl"
	noctrlBmap.Mapping = MapBaseline
	for _, tc := range []struct {
		abbr, name string
		cfg        Config
		maxBytes   float64 // per warp-instruction
		maxMallocs float64
	}{
		{"BFS", "noctrl-bmap", noctrlBmap, 45.6, 0.156},
		{"FWT", "baseline", BaselineConfig(), 10.1, 0.033},
		{"SP", "baseline", BaselineConfig(), 5.3, 0.018}, // 36.6 B with a deep-copying Clone
		{"KM", "baseline", BaselineConfig(), 5.7, 0.015},
		{"BP", "baseline", BaselineConfig(), 10.6, 0.016},
	} {
		w, err := workloads.ByAbbr(tc.abbr)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatal(err)
		}
		tc.cfg.MaxCycles = 100_000_000

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run := inst.Clone()
		sys := New(tc.cfg, run.Mem, run.Alloc)
		err = sys.Run(run.Launches)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.abbr, tc.name, err)
		}

		winstr := float64(sys.Stats().WarpInstrs)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / winstr
		mallocs := float64(after.Mallocs-before.Mallocs) / winstr
		t.Logf("%s/%s: %.1f B and %.3f mallocs per warp-instruction (%.0f warp-instructions)",
			tc.abbr, tc.name, bytes, mallocs, winstr)
		if bytes > tc.maxBytes {
			t.Errorf("%s/%s allocates %.1f B per warp-instruction, budget %g",
				tc.abbr, tc.name, bytes, tc.maxBytes)
		}
		if mallocs > tc.maxMallocs {
			t.Errorf("%s/%s allocates %.3f objects per warp-instruction, budget %g",
				tc.abbr, tc.name, mallocs, tc.maxMallocs)
		}
	}
}

// newSystemCells are the Systems BenchmarkNewSystem builds over KM at scale
// 0.03: baseline (68 main SMs) and ctrl-tmap (64), each with 4 stack SMs,
// with TestNewSystemAllocCeiling's ceiling on the bytes each one allocates,
// about 5 % above its B/op (86,261 and 84,656).
var newSystemCells = []struct {
	name     string
	cfg      Config
	maxBytes uint64
}{{"baseline", BaselineConfig(), 90_600}, {"ctrl-tmap", DefaultConfig(), 88_900}}

// TestNewSystemAllocCeiling turns BenchmarkNewSystem's B/op into a ceiling,
// so that a fixed-size table added to New fails go test instead of showing
// only in benchmark output.
func TestNewSystemAllocCeiling(t *testing.T) {
	inst := kmInstance(t)
	for _, tc := range newSystemCells {
		const n = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			New(tc.cfg, inst.Mem, inst.Alloc)
		}
		runtime.ReadMemStats(&after)
		b := (after.TotalAlloc - before.TotalAlloc) / n
		t.Logf("%s: New allocates %d B", tc.name, b)
		if b > tc.maxBytes {
			t.Errorf("%s: New allocates %d B, ceiling %d", tc.name, b, tc.maxBytes)
		}
	}
}

// kmInstance is KM at scale 0.03, the workload New is priced over.
func kmInstance(tb testing.TB) *workloads.Instance {
	tb.Helper()
	w, err := workloads.ByAbbr("KM")
	if err != nil {
		tb.Fatal(err)
	}
	inst, err := w.Build(0.03)
	if err != nil {
		tb.Fatal(err)
	}
	return inst
}

// BenchmarkNewSystem prices sim.New, what every cell pays before its first
// cycle, over newSystemCells. Nothing runs, so no SM has issued: B/op is the
// construction cost of a GPU whose SMs are all idle.
func BenchmarkNewSystem(b *testing.B) {
	inst := kmInstance(b)
	for _, tc := range newSystemCells {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(tc.cfg, inst.Mem, inst.Alloc)
			}
		})
	}
}

// TestRunAllocatesOnlyItsPeak: a run allocates what its peak needs, not what
// its length does. One kernel whose stores all land in one page runs at a
// grid past the GPU's residency and at four times that grid: the longer run
// retires and dispatches four times the warps and CTAs through the same
// peak of resident ones, and must allocate as many objects, give or take
// the few overflow buckets of the MSHR maps (Go seeds every map's hash at
// random, so their layout varies by an object or two from run to run). A
// warp or CTA context allocated per dispatch, rather than recycled, costs
// the longer run an object per extra warp or CTA: 26,000 more.
func TestRunAllocatesOnlyItsPeak(t *testing.T) {
	b := isa.NewBuilder("onepage", 1) // r0 = out
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.And(3, isa.R(2), isa.Imm(1023))
	b.Shl(3, isa.R(3), isa.Imm(2))
	b.Add(3, isa.R(0), isa.R(3))
	b.St(isa.R(3), 0, isa.R(2)) // out[gtid % 1024] = gtid: one 4 KB span
	b.Exit()
	k := b.MustBuild()

	cfg := BaselineConfig()
	resident := cfg.MainSMs * cfg.MaxCTAsPerSM
	mallocs := func(grid int) uint64 {
		alloc := mem.NewAllocTable()
		out := alloc.Alloc("out", 4*1024)
		launches := []exec.Launch{{Kernel: k, Grid: grid, Block: 128, Params: []uint64{out}}}
		m := mem.NewFlat()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys := New(cfg, m, alloc)
		err := sys.Run(launches)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	g := 2 * resident
	// A collection cycle allocates an object or two of its own; the runs
	// are small enough to measure without one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs(g) // the kernel lowers its program once, on first use
	short, long := mallocs(g), mallocs(4*g)
	t.Logf("grid %d: %d objects; grid %d: %d objects", g, short, 4*g, long)
	const slack = 8
	if long > short+slack {
		t.Errorf("grid %d allocates %d objects, grid %d allocates %d: the longer run should reuse the shorter one's peak",
			4*g, long, g, short)
	}
}

// TestWarpStampsFitInPadding: the life stamps that let a warp be recycled
// while wheel events and MSHR waiters still name it sit in padding, so the
// slab node, the waiter and the txn keep their sizes on a 64-bit host, and
// a warp stays in the 384-byte size class.
func TestWarpStampsFitInPadding(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit hosts")
	}
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"wheelEvent", unsafe.Sizeof(wheelEvent{}), 48},
		{"wheelNode", unsafe.Sizeof(wheelNode{}), 56},
		{"loadWaiter", unsafe.Sizeof(loadWaiter{}), 16},
		{"txn", unsafe.Sizeof(txn{}), 48},
		{"smWarp", unsafe.Sizeof(smWarp{}), 384},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestFlightSize: a flight embeds the dram.Request it hands its vault, whose
// queue links requests in place; the record stays 144 bytes, one size class.
func TestFlightSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit hosts")
	}
	if got := unsafe.Sizeof(flight{}); got != 144 {
		t.Errorf("flight is %d bytes, want 144", got)
	}
}
