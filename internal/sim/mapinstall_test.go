package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/mem"
	"repro/internal/obs"
)

// cloneEnvAlloc rebuilds a pristine allocation table for env (no learning
// flags), the way runSim does.
func cloneEnvAlloc(env *workloadEnv) *mem.AllocTable {
	alloc := mem.NewAllocTable()
	for _, r := range env.alloc.Ranges {
		alloc.Alloc(r.Name, r.Size)
	}
	return alloc
}

// TestStoredMappingMatchesPresetRun is the stored-mapping property test: a
// run that pre-installs a previously learned mapping must behave exactly
// like the free preset path with the same bit and ranges — byte-identical
// Stats except for the fields that define the stored path itself (the
// one-time copy charge and the provenance/savings bookkeeping) — and must
// generate zero learning-phase PCIe traffic.
func TestStoredMappingMatchesPresetRun(t *testing.T) {
	env := streamEnv(t, 16, 16)
	want := refMem(t, env)

	fresh := runSim(t, DefaultConfig(), env)
	fs := fresh.Stats()
	if fs.LearnedBit < 0 || len(fs.MappedRanges) == 0 {
		t.Fatalf("fresh run learned nothing (bit %d, ranges %v)", fs.LearnedBit, fs.MappedRanges)
	}
	if fs.MappingSource != MappingLearned {
		t.Fatalf("fresh run MappingSource = %q, want %q", fs.MappingSource, MappingLearned)
	}
	if fs.PCIeBytes == 0 {
		t.Fatal("fresh learning run should pay PCIe traffic")
	}

	// Stored-mapping run: install before cycle 0, never learn.
	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	sysS := New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
	if err := sysS.InstallMapping(fs.LearnedBit, fs.MappedRanges, fs.PCIeBytes); err != nil {
		t.Fatal(err)
	}
	if err := sysS.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	if ok, addr := mem.Equal(want, sysS.global.Mem); !ok {
		t.Fatalf("stored-mapping run diverged from reference at %#x", addr)
	}
	ss := sysS.Stats()
	if ss.PCIeBytes != 0 {
		t.Errorf("stored-mapping run paid %d learning-phase PCIe bytes, want 0", ss.PCIeBytes)
	}
	if ss.MappingSource != MappingStored {
		t.Errorf("MappingSource = %q, want %q", ss.MappingSource, MappingStored)
	}
	if ss.LearnPCIeSaved != fs.PCIeBytes {
		t.Errorf("LearnPCIeSaved = %d, want the fresh run's PCIe bytes %d", ss.LearnPCIeSaved, fs.PCIeBytes)
	}
	if ss.CopiedBytes != fs.CopiedBytes {
		t.Errorf("stored install charged %d copied bytes, fresh run charged %d",
			ss.CopiedBytes, fs.CopiedBytes)
	}
	if ss.LearnedBit != fs.LearnedBit {
		t.Errorf("stored run bit %d != learned bit %d", ss.LearnedBit, fs.LearnedBit)
	}

	// Preset comparator: the same bit and ranges installed on an oracle
	// system, for free. Post-install execution must be cycle-for-cycle
	// identical, so the two Stats agree on every field that is not
	// stored-path bookkeeping.
	cfgP := DefaultConfig()
	cfgP.Mapping = MapOracle
	cfgP.MaxCycles = 50_000_000
	sysP := New(cfgP, env.mem.Clone(), cloneEnvAlloc(env))
	if err := sysP.InstallMapping(fs.LearnedBit, fs.MappedRanges, fs.PCIeBytes); err != nil {
		t.Fatal(err)
	}
	if err := sysP.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	ps := sysP.Stats()

	norm := func(st Stats) Stats {
		st.CopiedBytes = 0
		st.MappingSource = ""
		st.LearnPCIeSaved = 0
		st.MappedRanges = nil
		return st
	}
	if a, b := norm(*ss), norm(*ps); !reflect.DeepEqual(&a, &b) {
		t.Errorf("stored-mapping run diverges from the preset run:\nstored: %+v\npreset: %+v", a, b)
	}
}

// TestInstallMappingRejections: a mapping that does not fit the system must
// be rejected outright — a partial or wrong install would place data
// incorrectly, which is strictly worse than re-learning — and an accepted
// install records the provenance of its mode.
func TestInstallMappingRejections(t *testing.T) {
	env := streamEnv(t, 4, 4)
	mk := func(mode MappingMode) *System {
		cfg := DefaultConfig()
		cfg.Mapping = mode
		return New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
	}
	if err := mk(MapBaseline).InstallMapping(9, []string{"a"}, 0); err == nil {
		t.Error("install on a baseline-mapping system should be rejected")
	}
	for _, mode := range []MappingMode{MapTransparent, MapOracle} {
		if err := mk(mode).InstallMapping(9, []string{"a", "ghost"}, 0); err == nil ||
			!strings.Contains(err.Error(), "ghost") {
			t.Errorf("mode %d, unknown range name: got %v, want an error naming the range", mode, err)
		}
		for _, bit := range []int{mapping.MinBit - 1, mapping.MaxBit + 1, 99} {
			if err := mk(mode).InstallMapping(bit, []string{"a"}, 0); err == nil {
				t.Errorf("mode %d: bit %d outside [%d, %d] should be rejected", mode, bit, mapping.MinBit, mapping.MaxBit)
			}
		}
		// A rejected install must leave the system untouched: no bit
		// active, nothing charged, and learning still pending where the
		// mode learns.
		sys := mk(mode)
		learning := sys.learning
		if err := sys.InstallMapping(9, []string{"a", "ghost"}, 7); err == nil {
			t.Fatal("want error")
		}
		if sys.learning != learning || sys.offloadBit != -1 || sys.stats.CopiedBytes != 0 ||
			sys.stats.MappingSource != "" || sys.stats.MappedRanges != nil {
			t.Errorf("mode %d: failed install mutated the system: learning=%v bit=%d copied=%d source=%q ranges=%v",
				mode, sys.learning, sys.offloadBit, sys.stats.CopiedBytes, sys.stats.MappingSource, sys.stats.MappedRanges)
		}
	}

	// A stored install charges the copy and emits map_install; an oracle
	// install is free: provenance preset, no copy, no savings, no event.
	for _, c := range []struct {
		mode          MappingMode
		source        string
		copied, saved uint64
		installEvents int
	}{
		{MapTransparent, MappingStored, 2 * env.alloc.Ranges[0].Size, 7, 1},
		{MapOracle, MappingPreset, 0, 0, 0},
	} {
		cfg := DefaultConfig()
		cfg.Mapping = c.mode
		sink := &obs.CollectSink{}
		cfg.Observer = &obs.Observer{Registry: obs.NewRegistry(), Trace: sink}
		sys := New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
		if err := sys.InstallMapping(9, []string{"a", "b"}, 7); err != nil {
			t.Fatal(err)
		}
		st := sys.Stats()
		if st.MappingSource != c.source || st.CopiedBytes != c.copied || st.LearnPCIeSaved != c.saved ||
			st.LearnedBit != 9 || !reflect.DeepEqual(st.MappedRanges, []string{"a", "b"}) {
			t.Errorf("mode %d install: source=%q copied=%d saved=%d bit=%d ranges=%v, want %q/%d/%d/9/[a b]",
				c.mode, st.MappingSource, st.CopiedBytes, st.LearnPCIeSaved, st.LearnedBit, st.MappedRanges,
				c.source, c.copied, c.saved)
		}
		if n := sink.CountKind(obs.EvMapInstall); n != c.installEvents {
			t.Errorf("mode %d install emitted %d map_install events, want %d", c.mode, n, c.installEvents)
		}
	}
}

// TestEndLearningAlreadyInForceSkipsCopy pins the no-op-copy guard: when
// the learning phase converges on a mapping that is already installed for
// every touched range, no data moves — so endLearning must charge zero
// copied bytes, invalidate nothing, and skip the 1000-cycle freeze.
func TestEndLearningAlreadyInForceSkipsCopy(t *testing.T) {
	env := streamEnv(t, 4, 4)

	observe := func(sys *System) {
		// Feed the analyzer a few instances out of range "a" so BestBit()
		// has data and the range is CandidateTouched.
		a, err := sys.alloc.Lookup("a")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			base := a.Base + uint64(i*1024)
			sys.analyzer.ObserveInstance([]uint64{base, base + 128, base + 256})
			sys.learnSeen++
		}
	}

	// Control: the normal path (no mapping in force) copies and freezes.
	ctl := New(DefaultConfig(), env.mem.Clone(), cloneEnvAlloc(env))
	observe(ctl)
	ctl.now = 500
	ctl.endLearning()
	if ctl.stats.CopiedBytes == 0 || ctl.frozenUntil != 1500 {
		t.Fatalf("control endLearning: copied=%d frozenUntil=%d, want a real copy + freeze",
			ctl.stats.CopiedBytes, ctl.frozenUntil)
	}

	// Same observations, but the chosen mapping is already in force.
	sys := New(DefaultConfig(), env.mem.Clone(), cloneEnvAlloc(env))
	observe(sys)
	bit := sys.analyzer.BestBit()
	sys.offloadBit = bit
	for i := range sys.alloc.Ranges {
		if sys.alloc.Ranges[i].CandidateTouched {
			sys.alloc.Ranges[i].OffloadMapped = true
		}
	}
	sys.now = 500
	sys.endLearning()
	st := sys.Stats()
	if st.CopiedBytes != 0 {
		t.Errorf("CopiedBytes = %d, want 0 (mapping already in force, no data moved)", st.CopiedBytes)
	}
	if sys.frozenUntil != 0 {
		t.Errorf("frozenUntil = %d, want 0 (no copy, no interrupt/drain pause)", sys.frozenUntil)
	}
	if st.LearnedBit != bit {
		t.Errorf("LearnedBit = %d, want %d", st.LearnedBit, bit)
	}
	if st.LearnInstances != 16 || st.LearnCycles != 500 {
		t.Errorf("learning accounting: instances=%d cycles=%d, want 16/500",
			st.LearnInstances, st.LearnCycles)
	}
}

// TestMaxCyclesTruncationClosesLearning is the launch-error-path regression
// test: a run truncated by MaxCycles mid-learning must still account for
// the open learning phase (LearnInstances/LearnCycles), not report zeros
// while the learn.instances_seen series recorded real observations.
func TestMaxCyclesTruncationClosesLearning(t *testing.T) {
	env := streamEnv(t, 16, 16)
	natural := runSim(t, DefaultConfig(), env)
	learnCycles := natural.Stats().LearnCycles
	if learnCycles == 0 {
		t.Fatal("natural run had no learning phase")
	}

	// Make the goal unreachable and the watchdog silent, then truncate at
	// the cycle where the natural run had already observed its full goal:
	// the learning phase is provably open and non-empty at the cut.
	cfg := DefaultConfig()
	cfg.LearnMin = 1 << 30
	cfg.LearnDeadline = 0
	cfg.MaxCycles = learnCycles
	sys := New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
	err := sys.Run(env.launches)
	if err == nil {
		t.Fatal("run should be truncated by MaxCycles")
	}
	st := sys.Stats()
	if st.LearnInstances == 0 {
		t.Error("truncated run reports LearnInstances=0 despite an open learning phase")
	}
	if st.LearnCycles == 0 {
		t.Error("truncated run reports LearnCycles=0 despite an open learning phase")
	}
	if st.LearnCycles != st.Cycles {
		t.Errorf("learning closed at cycle %d, want the truncation cycle %d", st.LearnCycles, st.Cycles)
	}
}

// TestLearnDeadlineExactInBothLoopModes pins the watchdog's event-loop
// semantics: the deadline is in the wake-horizon set, so the event-driven
// loop may never jump sys.now past it — learning must close at exactly
// LearnDeadline in both loop modes when the instance goal is unreachable.
func TestLearnDeadlineExactInBothLoopModes(t *testing.T) {
	env := streamEnv(t, 8, 8)
	const deadline = 3000
	for _, perCycle := range []bool{false, true} {
		mode := map[bool]string{true: "percycle", false: "event"}[perCycle]
		cfg := DefaultConfig()
		cfg.LearnMin = 1 << 30 // unreachable goal: only the watchdog ends learning
		cfg.LearnDeadline = deadline
		sys := runSimMode(t, cfg, env, perCycle)
		if got := sys.Stats().LearnCycles; got != deadline {
			t.Errorf("%s: learning closed at cycle %d, want exactly the deadline %d",
				mode, got, deadline)
		}
	}
}
