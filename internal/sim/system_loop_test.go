package sim

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/workloads"
)

// runSimMode is runSim with an explicit loop-mode selector.
func runSimMode(t testing.TB, cfg Config, env *workloadEnv, perCycle bool) *System {
	t.Helper()
	sys := newSim(cfg, env)
	sys.SetPerCycleLoop(perCycle)
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestExactQuiescence: the run must end on the first cycle after the last
// component activity — the old amortized check (every 64 cycles) overshot
// the true drain cycle by up to 63 cycles, inflating every reported cycle
// count. The hook observes quiescence at the end of every executed cycle of
// the event loop: only the last one may end quiescent.
func TestExactQuiescence(t *testing.T) {
	env := streamEnv(t, 8, 8)
	sys := newSim(BaselineConfig(), env)
	var quietEnds []int64
	var last int64
	sys.afterCycle = func(cycle int64) {
		last = cycle
		if sys.quiet() {
			quietEnds = append(quietEnds, cycle)
		}
	}
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	if len(quietEnds) != 1 || quietEnds[0] != last {
		t.Errorf("executed cycles that ended quiescent: %v, want only the last (%d) — drain is not exact",
			quietEnds, last)
	}
	if got := sys.Stats().Cycles; got != last+1 {
		t.Errorf("Cycles = %d, want %d (last executed cycle %d + 1)", got, last+1, last)
	}
}

// TestMaxCyclesBoundary pins the limit's exact semantics in both loop
// modes: the run may execute cycles 0..MaxCycles; if it reaches quiescence
// when sys.now passes the limit, quiescence wins (a drain finishing exactly
// at the boundary is a success), otherwise the error fires with
// sys.now == MaxCycles+1.
func TestMaxCyclesBoundary(t *testing.T) {
	env := streamEnv(t, 4, 4)
	natural := runSim(t, BaselineConfig(), env).Stats().Cycles

	for _, perCycle := range []bool{false, true} {
		mode := map[bool]string{true: "percycle", false: "event"}[perCycle]

		// The last executed cycle of a natural run is natural-1, so
		// MaxCycles = natural-1 must still succeed...
		cfg := BaselineConfig()
		cfg.MaxCycles = natural - 1
		sys := runSimMode(t, cfg, env, perCycle)
		if got := sys.Stats().Cycles; got != natural {
			t.Errorf("%s: boundary success run Cycles = %d, want %d", mode, got, natural)
		}

		// ...and MaxCycles = natural-2 must fail, with the error raised at
		// exactly MaxCycles+1 in both modes (event jumps may not leap it).
		cfg2 := BaselineConfig()
		cfg2.MaxCycles = natural - 2
		sys2 := newSim(cfg2, env)
		sys2.SetPerCycleLoop(perCycle)
		err := sys2.Run(env.launches)
		if err == nil {
			t.Fatalf("%s: MaxCycles=%d should fail (natural run needs %d cycles)",
				mode, natural-2, natural)
		}
		if got := sys2.Stats().Cycles; got != natural-1 {
			t.Errorf("%s: error raised at cycle %d, want MaxCycles+1 = %d", mode, got, natural-1)
		}
	}
}

// TestFrozenWindowSemantics pins which components advance during the
// learning-phase freeze (endLearning's interrupt+drain pause): SMs and
// memory stacks are stopped — no instructions execute, no DRAM requests
// are served — while the L2, all links, and the wheel keep ticking, so
// in-flight traffic continues to drain. The freeze is exactly 1000 cycles.
func TestFrozenWindowSemantics(t *testing.T) {
	env := streamEnv(t, 24, 24)
	sys := newSim(DefaultConfig(), env) // tmap + controlled offload: has a learning phase

	type snap struct {
		warpInstrs uint64
		dramOps    uint64
		pcieBytes  uint64
	}
	// samples holds the state each executed cycle started from: the state
	// at the end of the executed cycle before it.
	samples := map[int64]snap{}
	var prev snap
	// due holds the warps whose pipeline latency runs out inside the
	// freeze, taken at the end of the cycle that started it; stuck is
	// what the first cycle after the freeze finds of them still parked
	// on that latency alone, in the same life.
	type parked struct {
		sw    *smWarp
		gen   uint32
		until int64
	}
	var due, stuck []parked
	firstAfter := int64(-1)
	sys.afterCycle = func(cycle int64) {
		if fu := sys.frozenUntil; fu > 0 && due == nil && cycle < fu {
			for _, sm := range sys.all {
				for _, sw := range sm.warps {
					if sw != nil && sw.state == wsWaitDep && sw.notReadyUntil > cycle {
						due = append(due, parked{sw, sw.gen, sw.notReadyUntil})
					}
				}
			}
		}
		if fu := sys.frozenUntil; fu > 0 && firstAfter < 0 && cycle >= fu {
			firstAfter = cycle
			for _, p := range due {
				if p.sw.gen == p.gen && p.sw.notReadyUntil == p.until && waitsOnNothing(p.sw, cycle) {
					stuck = append(stuck, p)
				}
			}
		}
		samples[cycle] = prev
		prev = snap{warpInstrs: sys.stats.WarpInstrs,
			pcieBytes: sys.pcieTX.BytesSent + sys.pcieRX.BytesSent}
		for _, st := range sys.stacks {
			for _, v := range st.vaults {
				prev.dramOps += v.Reads + v.Writes
			}
		}
	}
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	// A cycle the event loop skipped has no sample; reading it as a zero
	// snap would let every equality below pass vacuously.
	at := func(cycle int64) snap {
		s, ok := samples[cycle]
		if !ok {
			t.Fatalf("cycle %d was not executed, so there is no sample of its start", cycle)
		}
		return s
	}
	st := sys.Stats()
	if st.LearnCycles == 0 {
		t.Fatal("no learning phase happened")
	}
	fz := st.LearnCycles
	if sys.frozenUntil != fz+1000 {
		t.Fatalf("frozenUntil = %d, want LearnCycles+1000 = %d", sys.frozenUntil, fz+1000)
	}
	// endLearning may fire mid-cycle (the instance goal is hit inside an
	// SM tick), so cycle fz itself can still execute a few instructions on
	// SMs later in the fan-out; cycles fz+1..fz+999 are fully frozen.
	start, end := at(fz+1), at(fz+1000)
	if start.warpInstrs != end.warpInstrs {
		t.Errorf("SMs executed %d instructions during the freeze window",
			end.warpInstrs-start.warpInstrs)
	}
	if start.dramOps != end.dramOps {
		t.Errorf("vaults served %d requests during the freeze window",
			end.dramOps-start.dramOps)
	}
	if end.pcieBytes == start.pcieBytes {
		t.Error("links should keep moving in-flight traffic during the freeze")
	}
	// After the freeze, SMs resume.
	if st.WarpInstrs == end.warpInstrs {
		t.Error("no instructions executed after the freeze")
	}
	// Timers run through the freeze: a warp whose latency ran out inside
	// it is ready on the first cycle after it, not when a timer slot next
	// comes round.
	if len(due) == 0 {
		t.Fatal("no warp's pipeline latency ran out inside the freeze")
	}
	if firstAfter != sys.frozenUntil {
		t.Fatalf("first executed cycle after the freeze is %d, want frozenUntil = %d", firstAfter, sys.frozenUntil)
	}
	for _, p := range stuck {
		t.Errorf("warp %d of SM %d: latency ran out at cycle %d inside the freeze, still waiting at frozenUntil = %d",
			p.sw.slot, p.sw.sm.id, p.until, sys.frozenUntil)
	}
}

// TestWheelOverflowDelayInSystem: delays at or beyond the wheel's horizon
// wait in the overflow bucket and are re-filed once in range (the seed loop
// panicked on them). The wheel is sized from the Config, so the run is
// built on one too short for it — 64 slots under a 1000-cycle offload
// pipeline and a 90-cycle L2, so every offload request and every L2 return
// passes through the overflow bucket — and must end with the memory of the
// functional reference and the Stats of the same run on its sized wheel.
func TestWheelOverflowDelayInSystem(t *testing.T) {
	env := streamEnv(t, 4, 4)
	want := refMem(t, env)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	cfg.OffloadPipeLat = 1000 // absurdly deep offload pipeline
	sized := runSim(t, cfg, env)
	short := newSim(cfg, env)
	short.wheel = newWheel(short, 64)
	if err := short.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	if ok, addr := mem.Equal(want, short.global.Mem); !ok {
		t.Fatalf("run with over-horizon latencies diverged at %#x", addr)
	}
	if short.Stats().OffloadsSent == 0 {
		t.Fatal("run should still offload")
	}
	if got, want := short.Stats(), sized.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("a 64-slot wheel changed the run:\n got %+v\nwant %+v", got, want)
	}
}

const fig9TickedPath = "testdata/fig9_ticked.json"

// fig9Ticked is the event loop's executed-cycle count of each Fig. 9 cell at
// scale 0.03 (sum 1,190,171 of 1,366,577 simulated). Regenerate with:
//
//	GOLDEN_UPDATE=1 go test ./internal/sim -run TestEventLoopMatchesPerCycleStats
//
//go:embed testdata/fig9_ticked.json
var fig9Ticked []byte

// eventLoopPinConfigs is the Fig. 9 matrix plus the shapes that stress the
// event loop's wake sets.
func eventLoopPinConfigs() []pinConfig {
	cfgs := fig9PinConfigs()
	with := func(name string, edit func(c *Config)) {
		cfgs = append(cfgs, pinConfig{name, func() Config {
			c := DefaultConfig()
			edit(&c)
			return c
		}})
	}
	// The watchdog closes learning at the deadline here (the instance goal
	// is out of reach), so the cell exercises the deadline entry in the
	// event loop's wake horizon: a jump past it would end learning late and
	// shift every downstream statistic.
	with("ctrl-tmap-deadline", func(c *Config) {
		c.LearnMin = 1 << 30
		c.LearnDeadline = 2500
	})
	// Zero-cost spawn: a main SM's tick wakes a stack SM in the same cycle,
	// and stack SMs run oversubscribed.
	with("ideal", func(c *Config) {
		c.Policy = "ideal"
		c.Mapping = MapBaseline
	})
	with("coda", func(c *Config) { c.Policy = "coda" })
	with("mpu", func(c *Config) {
		c.Mapping = MapBaseline
		c.Policy = "mpu"
	})
	// Two SMs per stack, placed so that stack 1's pair (ids 63, 64)
	// straddles a word of the SM sets.
	with("stacksms-2", func(c *Config) {
		c.StackSMs = 2
		c.MainSMs = 61
	})
	with("warp-4x", func(c *Config) { c.StackWarpMult = 4 })
	// SM ids span three words; the stack SMs start mid-word in the third.
	with("mainsms-130", func(c *Config) { c.MainSMs = 130 })
	return cfgs
}

// TestEventLoopMatchesPerCycleStats is the equivalence guarantee behind
// the event-driven loop: over the Fig. 9 workload×config matrix and the
// wake-set shapes, jumping idle cycles must produce byte-identical Stats to
// ticking every cycle. It also pins what Stats cannot see: the wake sets
// agree with the state they summarise, every in-flight offload job's
// requester is parked and nothing reaches a recycled warp after every
// executed event-loop cycle (checkWakeSets, checkOffloadJobs,
// lateHolderCheck; the per-cycle loop keeps no wake sets), the event loop
// executes no more cycles than the per-cycle loop, and on the Fig. 9 cells
// exactly as many as fig9_ticked.json records — a stale wake bit costs a
// no-op cycle and changes no statistic.
func TestEventLoopMatchesPerCycleStats(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-system simulations")
	}
	update := os.Getenv("GOLDEN_UPDATE") != ""
	var ticked map[string]int64
	if err := json.Unmarshal(fig9Ticked, &ticked); err != nil {
		t.Fatal(err)
	}
	fresh := map[string]int64{}
	nFig9 := len(fig9PinConfigs()) // eventLoopPinConfigs starts with them
	for _, w := range workloads.All() {
		inst, err := w.Build(0.03)
		if err != nil {
			t.Fatalf("%s: %v", w.Abbr, err)
		}
		for j, c := range eventLoopPinConfigs() {
			cell := fmt.Sprintf("%s/%s", w.Abbr, c.name)
			t.Run(cell, func(t *testing.T) {
				var stats [2]*Stats
				var mems [2]*mem.Flat
				var executed [2]int64
				for i, perCycle := range []bool{false, true} {
					run := inst.Clone()
					cfg := c.mk()
					cfg.MaxCycles = 100_000_000
					sys := New(cfg, run.Mem, run.Alloc)
					sys.SetPerCycleLoop(perCycle)
					if !perCycle {
						checkLateHolders := lateHolderCheck()
						sys.afterCycle = func(cycle int64) {
							if err := checkWakeSets(sys); err != nil {
								t.Fatalf("after cycle %d: %v", cycle, err)
							}
							if err := checkOffloadJobs(sys); err != nil {
								t.Fatalf("after cycle %d: %v", cycle, err)
							}
							if _, err := checkLateHolders(sys); err != nil {
								t.Fatalf("after cycle %d: %v", cycle, err)
							}
						}
					}
					if err := sys.Run(run.Launches); err != nil {
						t.Fatal(err)
					}
					stats[i], mems[i], executed[i] = sys.Stats(), run.Mem, sys.ExecutedCycles()
				}
				if !reflect.DeepEqual(stats[0], stats[1]) {
					t.Errorf("event-driven and per-cycle Stats diverge:\nevent:    %+v\npercycle: %+v",
						stats[0], stats[1])
				}
				if ok, addr := mem.Equal(mems[0], mems[1]); !ok {
					t.Errorf("memory images diverge at %#x", addr)
				}
				if executed[0] > executed[1] {
					t.Errorf("event loop executed %d cycles, per-cycle loop %d", executed[0], executed[1])
				}
				if j >= nFig9 {
					return
				}
				fresh[cell] = executed[0]
				if want := ticked[cell]; !update && executed[0] != want {
					t.Errorf("event loop executed %d cycles, recorded %d", executed[0], want)
				}
			})
		}
	}
	if update && !t.Failed() {
		writeGolden(t, fig9TickedPath, fresh)
	}
}
