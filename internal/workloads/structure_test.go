package workloads

import (
	"math/bits"
	"testing"

	"repro/internal/cfgx"
	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestAllocationsCoverEveryLane: every global access of every workload
// must land inside a driver allocation (no wild addresses).
func TestAllocationsCoverEveryLane(t *testing.T) {
	for _, w := range All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		c := inst.Clone()
		g := exec.NewGlobal(c.Mem)
		bad := 0
		var firstBad uint64
		hook := func(wp *exec.Warp, res exec.StepResult) {
			if res.Kind != exec.StepMem {
				return
			}
			for _, line := range g.Lines() {
				for m := line.Lanes; m != 0; m &= m - 1 {
					if addr := g.Addrs[bits.TrailingZeros32(m)]; c.Alloc.Find(addr) == nil {
						if bad == 0 {
							firstBad = addr
						}
						bad++
					}
				}
			}
		}
		for _, l := range c.Launches {
			if err := runHooked(g, l, hook); err != nil {
				t.Fatalf("%s: %v", w.Abbr, err)
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d accesses outside allocations (first %#x)", w.Abbr, bad, firstBad)
		}
	}
}

// runHooked runs one launch functionally over g with a step hook.
func runHooked(g *exec.Global, l exec.Launch, hook exec.StepHook) error {
	info, err := cfgx.Analyze(l.Kernel)
	if err != nil {
		return err
	}
	return exec.RunAnalyzed(g, l, info, hook)
}

// TestWarpCoalescingQuality: the workloads are written with interleaved
// layouts; the average number of 128B lines per warp memory instruction
// must stay low (uncoalesced kernels would swamp the MSHRs, see docs/ISA.md).
func TestWarpCoalescingQuality(t *testing.T) {
	for _, w := range All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		c := inst.Clone()
		g := exec.NewGlobal(c.Mem)
		var memInstrs, lines uint64
		hook := func(wp *exec.Warp, res exec.StepResult) {
			if res.Kind != exec.StepMem {
				return
			}
			memInstrs++
			lines += uint64(len(g.Lines()))
		}
		for _, l := range c.Launches {
			if err := runHooked(g, l, hook); err != nil {
				t.Fatalf("%s: %v", w.Abbr, err)
			}
		}
		if memInstrs == 0 {
			t.Fatalf("%s: no memory instructions", w.Abbr)
		}
		avg := float64(lines) / float64(memInstrs)
		t.Logf("%s: %.2f lines per warp memory instruction", w.Abbr, avg)
		// BFS/CFD gathers are legitimately scattered; everything else
		// should coalesce tightly.
		limit := 4.0
		if w.Abbr == "BFS" || w.Abbr == "CFD" || w.Abbr == "RAY" {
			limit = 24.0
		}
		if avg > limit {
			t.Errorf("%s: %.2f lines/mem-instr exceeds %v (uncoalesced layout?)", w.Abbr, avg, limit)
		}
	}
}

// TestKernelsFitHardwareTables: every workload kernel must fit the paper's
// provisioned metadata table and the register-file limits.
func TestKernelsFitHardwareTables(t *testing.T) {
	for _, w := range All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, l := range inst.Launches {
			k := l.Kernel
			if seen[k.Name] {
				continue
			}
			seen[k.Name] = true
			if k.NumRegs > isa.MaxRegs {
				t.Errorf("%s/%s: %d registers", w.Abbr, k.Name, k.NumRegs)
			}
			md, err := compiler.Analyze(k, compiler.DefaultCostParams())
			if err != nil {
				t.Fatal(err)
			}
			if len(md.Candidates) > 40 {
				t.Errorf("%s/%s: %d candidates exceed the metadata table", w.Abbr, k.Name, len(md.Candidates))
			}
		}
	}
}

// TestTinyTimingRunEveryWorkload: a fast end-to-end smoke of the timing
// simulator across all ten workloads at the smallest usable scale, with
// verification (complements the larger integration test in internal/sim).
func TestTinyTimingRunEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("timing runs")
	}
	for _, w := range All() {
		inst, err := w.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		ref := inst.Clone()
		if err := exec.RunFunctionalAll(ref.Mem, ref.Launches); err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		c := inst.Clone()
		cfg := sim.BaselineConfig()
		cfg.MaxCycles = 100_000_000
		sys := sim.New(cfg, c.Mem, c.Alloc)
		if err := sys.Run(c.Launches); err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		if ok, addr := mem.Equal(ref.Mem, c.Mem); !ok {
			t.Errorf("%s: diverged at %#x", w.Abbr, addr)
		}
	}
}
