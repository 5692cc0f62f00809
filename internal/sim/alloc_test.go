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
// stores to every page of its image (L2 misses over the GPU links) and one
// that stores to one page of 45, the read-mostly shape copy-on-write images
// are for: heap bytes and objects allocated by Clone+New+Run — what a session
// pays per cell, the run's private copies of the pages it writes included —
// per simulated warp-instruction. The counts repeat from run to run to three
// digits, and the ceilings sit about 10 % above what the cells allocate
// (63.5, 16.8 and 10.8 B; 0.313, 0.078 and 0.045 objects). BFS's is 4 %: it
// keeps the most warps, and a buffer that every warp owns again (a 32-entry
// lane access buffer was 3.8 B there) must fail it.
func TestSteadyStateAllocBudget(t *testing.T) {
	noctrlBmap := DefaultConfig()
	noctrlBmap.Offload = OffloadUncontrolled
	noctrlBmap.Mapping = MapBaseline
	for _, tc := range []struct {
		abbr, name string
		cfg        Config
		maxBytes   float64 // per warp-instruction
		maxMallocs float64
	}{
		{"BFS", "noctrl-bmap", noctrlBmap, 66, 0.35},
		{"FWT", "baseline", BaselineConfig(), 18.5, 0.085},
		{"SP", "baseline", BaselineConfig(), 12, 0.05}, // 36.6 B with a deep-copying Clone
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
