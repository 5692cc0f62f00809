package sim

import (
	"runtime"
	"testing"

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
// above what the cells allocate (59.3, 12.3, 6.2, 6.2 and 10.8 B; 0.312,
// 0.074, 0.042, 0.029 and 0.037 objects). BFS's is 4 %: it keeps the most
// warps, and a buffer that every warp owns again (a 32-entry lane access
// buffer was 3.8 B there) must fail it. KM's fails if an idle SM allocates
// its L1 tag store, timer ring and warp slot table again (10.7 B). BP's
// second kernel uses 16 registers after the first's 15; its ceiling fails
// if that launch allocates its warps' register files again rather than
// reusing the first launch's, whose size class holds 16 (12.2 B).
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
		{"BFS", "noctrl-bmap", noctrlBmap, 61.6, 0.35},
		{"FWT", "baseline", BaselineConfig(), 13.5, 0.082},
		{"SP", "baseline", BaselineConfig(), 6.8, 0.046}, // 36.6 B with a deep-copying Clone
		{"KM", "baseline", BaselineConfig(), 6.8, 0.032},
		{"BP", "baseline", BaselineConfig(), 11.9, 0.041},
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

// BenchmarkNewSystem prices sim.New, what every cell pays before its first
// cycle, over KM at scale 0.03 under baseline (68 main SMs) and ctrl-tmap
// (64), each with 4 stack SMs. Nothing runs, so no SM has issued: B/op is
// the construction cost of a GPU whose SMs are all idle.
func BenchmarkNewSystem(b *testing.B) {
	w, err := workloads.ByAbbr("KM")
	if err != nil {
		b.Fatal(err)
	}
	inst, err := w.Build(0.03)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"baseline", BaselineConfig()}, {"ctrl-tmap", DefaultConfig()}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				New(tc.cfg, inst.Mem, inst.Alloc)
			}
		})
	}
}
