package sim

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mapping"
	"repro/internal/mem"
)

// checkConservation asserts the lifecycle identity every policy must
// preserve: every candidate entry is sent, gated (with a reason), or
// consumed by the learning phase.
func checkConservation(t *testing.T, st *Stats) {
	t.Helper()
	if err := st.DrainError(); err != nil {
		t.Fatal(err)
	}
	if got := st.OffloadsSent + st.OffloadsSkipped() + st.LearnEntries; got != st.CandidateInstances {
		t.Errorf("conservation broken: %d candidates != %d sent + %d skipped + %d learn",
			st.CandidateInstances, st.OffloadsSent, st.OffloadsSkipped(), st.LearnEntries)
	}
}

func TestUnknownPolicyPanics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = "bogus"
	defer func() {
		if recover() == nil {
			t.Fatal("New must reject an unknown policy name")
		}
	}()
	New(cfg, mem.NewFlat(), mem.NewAllocTable())
}

// TestPolicyRunsMatchReference: every policy must preserve
// program semantics end-to-end and keep the offload lifecycle conserved on
// a workload that exercises offloading.
func TestPolicyRunsMatchReference(t *testing.T) {
	env := shortLoopEnv(t, 64)
	want := refMem(t, env)
	for _, policy := range []string{"tom", "ideal", "coda", "mpu"} {
		t.Run(policy, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Mapping = MapBaseline
			cfg.Policy = policy
			sys := runSim(t, cfg, env)
			if ok, addr := mem.Equal(want, sys.global.Mem); !ok {
				t.Fatalf("policy %s diverged from functional reference at %#x", policy, addr)
			}
			st := sys.Stats()
			checkConservation(t, st)
			if st.CandidateInstances == 0 {
				t.Fatal("no candidate instances seen")
			}
			t.Logf("%s: cycles=%d sent=%d skipped=%d (split=%d vaultfull=%d destbound=%d)",
				policy, st.Cycles, st.OffloadsSent, st.OffloadsSkipped(),
				st.OffloadsSkippedSplit, st.OffloadsSkippedVaultFull, st.OffloadsSkippedDestBound)
		})
	}
}

// TestMPUVaultAccountingDrains: the per-vault pending counters must return
// to zero at quiescence and never go negative, and the mpu policy must
// actually send vault-addressed offloads.
func TestMPUVaultAccountingDrains(t *testing.T) {
	env := shortLoopEnv(t, 64)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	cfg.Policy = "mpu"
	sys := newSim(cfg, env)
	maxSeen := 0
	sys.afterCycle = func(cycle int64) {
		for s := range sys.pendingVault {
			for v, p := range sys.pendingVault[s] {
				if p < 0 {
					t.Fatalf("pendingVault[%d][%d] negative after cycle %d", s, v, cycle)
				}
				if p > maxSeen {
					maxSeen = p
				}
			}
		}
	}
	if err := sys.Run(env.launches); err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	checkConservation(t, st)
	if st.OffloadsSent == 0 {
		t.Fatal("mpu policy never offloaded")
	}
	if maxSeen == 0 {
		t.Error("vault occupancy never observed nonzero despite offloads")
	}
	for s := range sys.pendingVault {
		for v, p := range sys.pendingVault[s] {
			if p != 0 {
				t.Errorf("pendingVault[%d][%d] = %d at quiescence, want 0", s, v, p)
			}
		}
	}
}

// splitLoopEnv is shortLoopEnv with a pad allocation wedged between a[] and
// b[] so the two streams home to different stacks under the baseline XOR
// interleave — every dry-run window then spans stacks.
func splitLoopEnv(t *testing.T, trips int, pad uint64) *workloadEnv {
	t.Helper()
	b := isa.NewBuilder("split", 5) // r0=a, r1=b, r2=out, r3=trips, r4=T
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.MovI(6, 0)
	b.Mov(7, isa.R(5))
	b.MovF(8, 0)
	b.Label("top")
	b.Shl(9, isa.R(7), isa.Imm(2))
	b.Add(10, isa.R(0), isa.R(9))
	b.Ld(11, isa.R(10), 0)
	b.Add(12, isa.R(1), isa.R(9))
	b.Ld(13, isa.R(12), 0)
	b.FMA(8, isa.R(11), isa.R(13), isa.R(8))
	b.Add(7, isa.R(7), isa.R(4))
	b.Add(6, isa.R(6), isa.Imm(1))
	b.Setp(14, isa.CmpLT, isa.R(6), isa.R(3))
	b.BraIf(isa.R(14), "top")
	b.Shl(15, isa.R(5), isa.Imm(2))
	b.Add(15, isa.R(2), isa.R(15))
	b.St(isa.R(15), 0, isa.R(8))
	b.Exit()
	k := b.MustBuild()

	env := &workloadEnv{mem: mem.NewFlat(), alloc: mem.NewAllocTable()}
	threads := 64 * 128
	n := threads * trips
	a := env.alloc.Alloc("a", uint64(4*n))
	env.alloc.Alloc("pad", pad)
	bb := env.alloc.Alloc("b", uint64(4*n))
	out := env.alloc.Alloc("out", uint64(4*threads))
	env.launches = []exec.Launch{{
		Kernel: k, Grid: 64, Block: 128,
		Params: []uint64{a, bb, out, uint64(trips), uint64(threads)},
	}}
	return env
}

// splitEnv is splitLoopEnv with the smallest pad that homes a[] and b[] to
// different stacks under the default configuration's baseline interleave.
func splitEnv(t *testing.T) *workloadEnv {
	t.Helper()
	for pad := uint64(mem.AllocAlign); pad <= 1<<20; pad += mem.AllocAlign {
		e := splitLoopEnv(t, 64, pad)
		a, b := e.launches[0].Params[0], e.launches[0].Params[1]
		if mapping.Decode(a, mapping.Interleave).Stack != mapping.Decode(b, mapping.Interleave).Stack {
			return e
		}
	}
	t.Fatal("no pad separates a[] and b[] under the baseline interleave")
	return nil
}

// TestCodaGatesSplitInstances: with a[] and b[] homed to different stacks,
// coda must veto the split instances while tom (co-location-blind) sends
// them.
func TestCodaGatesSplitInstances(t *testing.T) {
	env := splitEnv(t)

	tomCfg := DefaultConfig()
	tomCfg.Mapping = MapBaseline
	tomCfg.Policy = "tom"
	tomStats := runSim(t, tomCfg, env).Stats()

	codaCfg := DefaultConfig()
	codaCfg.Mapping = MapBaseline
	codaCfg.Policy = "coda"
	codaStats := runSim(t, codaCfg, env).Stats()

	checkConservation(t, tomStats)
	checkConservation(t, codaStats)
	if tomStats.OffloadsSkippedSplit != 0 {
		t.Errorf("tom counted %d split skips; only coda vetoes on co-location",
			tomStats.OffloadsSkippedSplit)
	}
	if tomStats.OffloadsSent == 0 {
		t.Fatal("tom never offloaded the split workload")
	}
	if codaStats.OffloadsSkippedSplit == 0 {
		t.Error("coda never gated on co-location despite the cross-stack layout")
	}
	if codaStats.OffloadsSent >= tomStats.OffloadsSent {
		t.Errorf("coda sent %d >= tom's %d on a workload built to split",
			codaStats.OffloadsSent, tomStats.OffloadsSent)
	}
	t.Logf("tom sent=%d; coda sent=%d split=%d",
		tomStats.OffloadsSent, codaStats.OffloadsSent, codaStats.OffloadsSkippedSplit)
}
