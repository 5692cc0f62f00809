package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mapping"
	"repro/internal/mem"
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

// TestStoredMappingMatchesPresetRun is the install property over its one
// path: the bit and ranges a fresh run learned, kept and preset before
// cycle 0 on a transparent system, put that mapping in force for the whole
// run and skip learning entirely: no learning-phase PCIe bytes, no learning
// cycles, no copy, and the reference memory image.
func TestStoredMappingMatchesPresetRun(t *testing.T) {
	env := streamEnv(t, 16, 16)
	want := refMem(t, env)

	fresh := runSim(t, DefaultConfig(), env)
	fs := fresh.Stats()
	if fs.LearnedBit < 0 || len(fs.MappedRanges) == 0 {
		t.Fatalf("fresh run learned nothing (bit %d, ranges %v)", fs.LearnedBit, fs.MappedRanges)
	}
	if fs.MappingSource != MappingLearned || fs.PCIeBytes == 0 {
		t.Fatalf("fresh run should learn over PCIe: source=%q pcie=%d", fs.MappingSource, fs.PCIeBytes)
	}

	cfg := DefaultConfig()
	cfg.MaxCycles = 50_000_000
	sys := New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
	if err := sys.InstallMapping(fs.LearnedBit, fs.MappedRanges); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	if ok, addr := mem.Equal(want, sys.global.Mem); !ok {
		t.Fatalf("preset run diverged from reference at %#x", addr)
	}
	st := sys.Stats()
	if st.PCIeBytes != 0 || st.LearnCycles != 0 || st.CopiedBytes != 0 || st.MappingSource != MappingPreset ||
		st.LearnedBit != fs.LearnedBit || !reflect.DeepEqual(st.MappedRanges, fs.MappedRanges) {
		t.Errorf("pcie=%d learn cycles=%d copied=%d source=%q bit=%d ranges=%v, want 0/0/0/%q/%d/%v",
			st.PCIeBytes, st.LearnCycles, st.CopiedBytes, st.MappingSource, st.LearnedBit, st.MappedRanges,
			MappingPreset, fs.LearnedBit, fs.MappedRanges)
	}
}

// TestInstallMappingRejections: a mapping that does not fit the system must
// be rejected outright — a partial or wrong install would place data
// incorrectly — and a rejected install leaves the system untouched.
func TestInstallMappingRejections(t *testing.T) {
	env := streamEnv(t, 4, 4)
	mk := func(mode MappingMode) *System {
		cfg := DefaultConfig()
		cfg.Mapping = mode
		return New(cfg, env.mem.Clone(), cloneEnvAlloc(env))
	}
	if err := mk(MapBaseline).InstallMapping(9, []string{"a"}); err == nil {
		t.Error("install on a baseline-mapping system should be rejected")
	}
	if err := mk(MapTransparent).InstallMapping(9, []string{"a", "ghost"}); err == nil ||
		!strings.Contains(err.Error(), "ghost") {
		t.Errorf("unknown range name: got %v, want an error naming the range", err)
	}
	for _, bit := range []int{mapping.MinBit - 1, mapping.MaxBit + 1, 99} {
		if err := mk(MapTransparent).InstallMapping(bit, []string{"a"}); err == nil {
			t.Errorf("bit %d outside [%d, %d] should be rejected", bit, mapping.MinBit, mapping.MaxBit)
		}
	}
	// A rejected install must leave the system untouched: no bit active,
	// nothing charged, and learning still pending.
	sys := mk(MapTransparent)
	if err := sys.InstallMapping(9, []string{"a", "ghost"}); err == nil {
		t.Fatal("want error")
	}
	if !sys.learning || sys.offloadBit != -1 || sys.stats.CopiedBytes != 0 ||
		sys.stats.MappingSource != "" || sys.stats.MappedRanges != nil {
		t.Errorf("failed install mutated the system: learning=%v bit=%d copied=%d source=%q ranges=%v",
			sys.learning, sys.offloadBit, sys.stats.CopiedBytes, sys.stats.MappingSource, sys.stats.MappedRanges)
	}
	// A policy row that never offloads has no learning phase, even on a
	// transparent system: a mapping reaches it only by InstallMapping.
	base := BaselineConfig()
	base.Mapping = MapTransparent
	if New(base, env.mem.Clone(), cloneEnvAlloc(env)).learning {
		t.Error("a no-offload system on the transparent mapping starts learning")
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

// TestLearnDeadlineExactInBothLoopModes pins the watchdog: learning must
// close at exactly LearnDeadline in both loop modes when the instance goal
// is unreachable.
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
