package sim

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// TestRecycledWarpsReadZeroRegisters: a register a thread never wrote reads
// zero, for every warp of a grid several times the GPU's resident capacity —
// so most warps run in a recycled warp whose previous user left that
// very register non-zero. No Table 2 kernel reads a register before writing
// it, so the whole-workload image checks cannot see a register file that is
// handed on dirty; this kernel exists to see it, in the timing model and in
// the functional runner (which reuses one CTA's warps across the grid).
func TestRecycledWarpsReadZeroRegisters(t *testing.T) {
	b := isa.NewBuilder("zeroreg", 1) // r0 = out
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.Shl(3, isa.R(2), isa.Imm(2))
	b.Add(3, isa.R(0), isa.R(3))
	b.Add(4, isa.R(9), isa.R(2)) // r9 is unwritten here: out[gtid] = 0 + gtid
	b.St(isa.R(3), 0, isa.R(4))
	b.MovI(9, 0x5a5a) // ...and dirty for whoever gets this warp next
	b.Exit()
	k := b.MustBuild()

	const ctas, block = 512, 128
	env := &workloadEnv{mem: mem.NewFlat(), alloc: mem.NewAllocTable()}
	out := env.alloc.Alloc("out", 4*ctas*block)
	env.launches = []exec.Launch{{Kernel: k, Grid: ctas, Block: block, Params: []uint64{out}}}

	check := func(what string, m *mem.Flat) {
		t.Helper()
		for i := uint64(0); i < ctas*block; i++ {
			if got := m.Load4(out + 4*i); got != uint32(i) {
				t.Fatalf("%s: out[%d] = %#x, want %#x: thread %d read a stale register", what, i, got, i, i)
			}
		}
	}
	check("functional", refMem(t, env))
	check("timing", runSim(t, BaselineConfig(), env).global.Mem)
}

// TestConcurrentSystemsShareNothing: Systems running side by side — as
// tomserve runs them — give the statistics a lone run gives. The free lists
// are per System; under the race detector this is where a list shared by
// mistake would show.
func TestConcurrentSystemsShareNothing(t *testing.T) {
	w, err := workloads.ByAbbr("LIB")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := w.Build(0.03)
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]byte, error) {
		c := inst.Clone()
		cfg := DefaultConfig() // ctrl-tmap: learning, offload jobs, every flight kind
		cfg.MaxCycles = 100_000_000
		sys := New(cfg, c.Mem, c.Alloc)
		if err := sys.Run(c.Launches); err != nil {
			return nil, err
		}
		return json.Marshal(sys.Stats())
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]byte, 4)
	errs := make([]error, len(got))
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if string(got[i]) != string(want) {
			t.Errorf("concurrent run %d: statistics differ from the lone run", i)
		}
	}
}

// TestLateHoldersMissARecycledWarp: a warp that retires while loads it never
// read are still out leaves register clears behind — MSHR waiters on its
// misses, wheel events for its L1 hits — and its warp object is dispatched
// again, under a new CTA, before they land. No Table 2 kernel retires with a
// load pending, so this kernel exists to: every warp stores its thread index,
// loads a word nobody reads, and exits, on a grid twice the GPU's residency.
// The late clears must stay stale (lateHolderCheck, on one cycle in
// eight), and the run must end with the functional reference's memory.
func TestLateHoldersMissARecycledWarp(t *testing.T) {
	b := isa.NewBuilder("deadload", 2) // r0 = in, r1 = out
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.Shl(3, isa.R(2), isa.Imm(2))
	b.Add(4, isa.R(1), isa.R(3))
	b.St(isa.R(4), 0, isa.R(2)) // out[gtid] = gtid
	b.And(5, isa.R(3), isa.Imm(1023))
	b.Add(5, isa.R(0), isa.R(5))
	b.Ld(6, isa.R(5), 0) // in[gtid % 256], never read
	b.Exit()
	k := b.MustBuild()

	cfg := BaselineConfig()
	ctas, block := 2*cfg.MainSMs*cfg.MaxCTAsPerSM, 128
	env := &workloadEnv{mem: mem.NewFlat(), alloc: mem.NewAllocTable()}
	in := env.alloc.Alloc("in", 1024)
	out := env.alloc.Alloc("out", uint64(4*ctas*block))
	env.launches = []exec.Launch{{Kernel: k, Grid: ctas, Block: block, Params: []uint64{in, out}}}

	sys := newSim(cfg, env)
	check := lateHolderCheck()
	stale := 0
	sys.afterCycle = func(cycle int64) {
		n, err := check(sys)
		if err != nil {
			t.Fatalf("after cycle %d: %v", cycle, err)
		}
		stale += n
	}
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	if stale == 0 {
		t.Fatal("no register clear outlived its warp: the kernel no longer tests late holders")
	}
	if ok, addr := mem.Equal(refMem(t, env), sys.global.Mem); !ok {
		t.Errorf("memory diverges from the functional reference at %#x", addr)
	}
	t.Logf("%d stale holders seen over %d cycles", stale, sys.now)
}
