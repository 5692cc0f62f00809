package exec

import (
	"fmt"

	"repro/internal/cfgx"
	"repro/internal/isa"
	"repro/internal/mapping"
	"repro/internal/mem"
)

// Launch describes one kernel invocation on a 1-D grid.
type Launch struct {
	Kernel *isa.Kernel
	Grid   int // number of CTAs
	Block  int // threads per CTA
	// Params are broadcast into registers r0..r(len-1) of every thread.
	Params []uint64
}

// Validate checks launch shape.
func (l Launch) Validate() error {
	if l.Kernel == nil {
		return fmt.Errorf("exec: launch has no kernel")
	}
	if l.Grid < 1 || l.Block < 1 {
		return fmt.Errorf("exec: launch %q: grid %d / block %d must be positive", l.Kernel.Name, l.Grid, l.Block)
	}
	if l.Block%isa.WarpSize != 0 {
		return fmt.Errorf("exec: launch %q: block %d not a multiple of warp size %d", l.Kernel.Name, l.Block, isa.WarpSize)
	}
	if len(l.Params) > l.Kernel.NumParams {
		return fmt.Errorf("exec: launch %q: %d params but kernel declares %d", l.Kernel.Name, len(l.Params), l.Kernel.NumParams)
	}
	return nil
}

// WarpsPerCTA returns the warp count per CTA.
func (l Launch) WarpsPerCTA() int { return (l.Block + isa.WarpSize - 1) / isa.WarpSize }

// StepHook observes every executed warp-instruction during an instrumented
// functional run (used by the profiling pass that feeds the Fig. 5/6
// analyses and the oracle mapping); a global memory step's lines are in the
// run's Global. The runner reuses one CTA's warps for every CTA of the grid,
// so w identifies a warp only until its last step (res.Done).
type StepHook func(w *Warp, res StepResult)

// RunFunctional executes the launch purely functionally (no timing): the
// reference model. CTAs run sequentially; warps within a CTA are
// interleaved at barrier granularity, which is sufficient for race-free
// kernels (barriers and commutative atomics are the only permitted
// inter-thread communication, as in the paper's offloading-legal subset).
func RunFunctional(m *mem.Flat, l Launch) error { return RunFunctionalAll(m, []Launch{l}) }

// NewGlobal returns the scratch for one functional run over m, coalescing at
// the mapping's cache-line size.
func NewGlobal(m *mem.Flat) *Global {
	return &Global{Mem: m, LineBytes: mapping.CacheLineBytes}
}

// analyses memoises the control-flow analysis per kernel over one pass of
// a launch list (BFS launches one kernel ten times).
type analyses map[*isa.Kernel]*cfgx.Info

func (a analyses) of(l Launch) (*cfgx.Info, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if info := a[l.Kernel]; info != nil {
		return info, nil
	}
	info, err := cfgx.Analyze(l.Kernel)
	if err == nil {
		a[l.Kernel] = info
	}
	return info, err
}

// RunAnalyzed is RunFunctional over g with a per-step observation hook, for
// a caller that holds the kernel's control-flow analysis, so a kernel
// launched many times is analysed once.
func RunAnalyzed(g *Global, l Launch, info *cfgx.Info, hook StepHook) error {
	if err := l.Validate(); err != nil {
		return err
	}
	// CTAs run one after the other, so one CTA's worth of warps, shared
	// memory and barrier flags serves the whole grid.
	wpc := l.WarpsPerCTA()
	shared := make([]uint32, (l.Kernel.SharedBytes+3)/4)
	warps := make([]*Warp, wpc)
	for wi := range warps {
		warps[wi] = new(Warp)
	}
	atBarrier := make([]bool, wpc)
	for cta := 0; cta < l.Grid; cta++ {
		clear(shared)
		clear(atBarrier)
		for wi, w := range warps {
			w.Reset(l.Kernel, info, WarpInfo{
				CtaID: cta, WarpInCTA: wi, NTid: l.Block, NCtaid: l.Grid,
			}, shared, l.Params)
		}
		for {
			busy := 0
			progressed := false
			for wi, w := range warps {
				if w.Done() || atBarrier[wi] {
					if atBarrier[wi] {
						busy++
					}
					continue
				}
				busy++
				for !w.Done() {
					r := w.Step(g)
					progressed = true
					if hook != nil {
						hook(w, r)
					}
					if r.Kind == StepBarrier {
						atBarrier[wi] = true
						break
					}
				}
			}
			if busy == 0 {
				break
			}
			// Release the barrier once every unfinished warp arrived.
			arrived := 0
			waiting := 0
			for wi, w := range warps {
				if atBarrier[wi] {
					arrived++
					waiting++
				} else if !w.Done() {
					waiting++
				}
			}
			if arrived > 0 && arrived == waiting {
				for wi := range atBarrier {
					atBarrier[wi] = false
				}
				progressed = true
			}
			if !progressed {
				return fmt.Errorf("exec: kernel %q CTA %d: barrier deadlock", l.Kernel.Name, cta)
			}
		}
	}
	return nil
}

// RunFunctionalAll runs a sequence of launches (a whole workload).
func RunFunctionalAll(m *mem.Flat, launches []Launch) error {
	memo, g := analyses{}, NewGlobal(m)
	for i, l := range launches {
		info, err := memo.of(l)
		if err == nil {
			err = RunAnalyzed(g, l, info, nil)
		}
		if err != nil {
			return fmt.Errorf("launch %d: %w", i, err)
		}
	}
	return nil
}
