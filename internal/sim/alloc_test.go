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
// above what the cells allocate (54.1, 11.1, 5.5, 5.8 and 10.3 B; 0.210,
// 0.049, 0.026, 0.016 and 0.023 objects). BFS's byte ceiling is 4 %: it
// keeps the most warps, and a buffer that every warp owns again (a 32-entry
// lane access buffer was 3.8 B there) must fail it. KM's fails if an idle
// SM allocates its L1 tag store and warp slot table again (7.6 B). BP's
// second kernel uses 16 registers after the first's 15; its ceiling fails
// if that launch allocates its warps' register files again rather than
// reusing the first launch's, whose size class holds 16 (11.7 B). A per-SM
// timer ring beside the wheel fails every object ceiling (BFS 0.312).
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
		{"BFS", "noctrl-bmap", noctrlBmap, 56.3, 0.231},
		{"FWT", "baseline", BaselineConfig(), 12.2, 0.054},
		{"SP", "baseline", BaselineConfig(), 6.1, 0.029}, // 36.6 B with a deep-copying Clone
		{"KM", "baseline", BaselineConfig(), 6.4, 0.018},
		{"BP", "baseline", BaselineConfig(), 11.3, 0.025},
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
