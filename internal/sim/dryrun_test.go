package sim

import (
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/offload"
)

// dryRunWarp builds a System plus a fresh warp for a hand-written kernel, so
// the destination dry run can be exercised directly: the warp sits at PC 0
// with the launch parameters in r0..rN, which is exactly the register state
// dryRun consumes for regions referencing only parameters.
func dryRunWarp(t *testing.T, k *isa.Kernel, params []uint64) (*System, *smWarp) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline
	sys := New(cfg, mem.NewFlat(), mem.NewAllocTable())
	md, err := sys.metadata(k)
	if err != nil {
		t.Fatal(err)
	}
	w := exec.NewWarp(k, md.Info, exec.WarpInfo{NTid: 32, NCtaid: 1}, nil, params)
	return sys, &smWarp{w: *w}
}

// destOf is the destination stack the simulator picks at a candidate
// entry: the policy's Dest over a one-access dry run, or -1 when it finds
// none.
func destOf(sys *System, sw *smWarp, cand *compiler.Candidate) int {
	req := offload.Request{Cand: cand, Stack: -1, Vault: -1}
	req.Lines, req.Bounded = sys.dryRun(sw, cand, 1)
	if sys.policy.Dest(polEnv{sys: sys}, &req) != "" {
		return -1
	}
	return req.Stack
}

func lineOf(sys *System, addr uint64) uint64 {
	return addr &^ uint64(sys.cfg.LineBytes-1)
}

// TestDryRunBranchPredicates: the scalar walk must evaluate Setp/FSetp
// predicates and follow the branch the leader lane would take, so the
// reported first access comes from the taken path.
func TestDryRunBranchPredicates(t *testing.T) {
	const aBase, bBase = 0x10000, 0x90000
	intKernel := func() *isa.Kernel {
		b := isa.NewBuilder("bri", 3) // r0=a, r1=b, r2=sel
		b.Setp(5, isa.CmpLT, isa.R(2), isa.Imm(10))
		b.BraIf(isa.R(5), "bpath")
		b.Ld(6, isa.R(0), 0)
		b.Bra("end")
		b.Label("bpath")
		b.Ld(7, isa.R(1), 0)
		b.Label("end")
		b.St(isa.R(0), 0, isa.R(6))
		b.Exit()
		return b.MustBuild()
	}
	floatKernel := func() *isa.Kernel {
		b := isa.NewBuilder("brf", 3) // r0=a, r1=b, r2=sel (f32 bits)
		b.FSetp(5, isa.CmpGT, isa.R(2), isa.ImmF(1.5))
		b.BraIf(isa.R(5), "bpath")
		b.Ld(6, isa.R(0), 0)
		b.Bra("end")
		b.Label("bpath")
		b.Ld(7, isa.R(1), 0)
		b.Label("end")
		b.St(isa.R(0), 0, isa.R(6))
		b.Exit()
		return b.MustBuild()
	}
	cases := []struct {
		name     string
		kernel   *isa.Kernel
		sel      uint64
		wantAddr uint64
	}{
		{"setp true takes branch", intKernel(), 5, bBase},
		{"setp false falls through", intKernel(), 50, aBase},
		{"fsetp true takes branch", floatKernel(), isa.F32Bits(2.5), bBase},
		{"fsetp false falls through", floatKernel(), isa.F32Bits(0.5), aBase},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sys, sw := dryRunWarp(t, c.kernel, []uint64{aBase, bBase, c.sel})
			// Region: everything up to (excluding) the trailing store.
			cand := &compiler.Candidate{StartPC: 0, EndPC: len(c.kernel.Instrs) - 2}
			lines, bounded := sys.dryRun(sw, cand, 1)
			if bounded {
				t.Fatal("straight-line region reported bounded")
			}
			if len(lines) != 1 || lines[0] != lineOf(sys, c.wantAddr) {
				t.Fatalf("dryRun lines = %#x, want [%#x]", lines, lineOf(sys, c.wantAddr))
			}
			if dest, want := destOf(sys, sw, cand), sys.place(lines[0]).Stack; dest != want {
				t.Errorf("dest = %d, want %d", dest, want)
			}
		})
	}
}

// TestDryRunIllegalOpBailsOut: instructions that cannot occur in a legal
// candidate must stop the walk with no destination rather than being
// misinterpreted — destOf reports -1 and the trace stays empty.
func TestDryRunIllegalOpBailsOut(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *isa.Builder)
	}{
		{"bar", func(b *isa.Builder) { b.Bar() }},
		{"ld.shared", func(b *isa.Builder) { b.LdShared(5, isa.R(0), 0) }},
		{"st.shared", func(b *isa.Builder) { b.StShared(isa.R(0), 0, isa.R(1)) }},
		{"atom.add", func(b *isa.Builder) { b.AtomAdd(5, isa.R(0), 0, isa.R(1)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := isa.NewBuilder(c.name, 2).SetShared(256)
			c.build(b)
			b.Ld(6, isa.R(0), 0) // never reached by the walk
			b.Exit()
			k := b.MustBuild()
			sys, sw := dryRunWarp(t, k, []uint64{0x10000, 0x20000})
			cand := &compiler.Candidate{StartPC: 0, EndPC: 2}
			lines, bounded := sys.dryRun(sw, cand, 4)
			if len(lines) != 0 || bounded {
				t.Fatalf("dryRun = (%#x, %v), want empty unbounded", lines, bounded)
			}
			if dest := destOf(sys, sw, cand); dest != -1 {
				t.Errorf("dest = %d, want -1", dest)
			}
		})
	}
}

// TestDryRunStepBoundReportsBounded: a region whose first memory access lies
// beyond the step bound must come back bounded (gate reason destbound), not
// as a plain empty trace.
func TestDryRunStepBoundReportsBounded(t *testing.T) {
	b := isa.NewBuilder("spin", 1) // r0=a
	b.MovI(5, 0)
	b.Label("top")
	b.Add(5, isa.R(5), isa.Imm(1))
	b.Setp(6, isa.CmpLT, isa.R(5), isa.Imm(1_000_000))
	b.BraIf(isa.R(6), "top")
	b.Ld(7, isa.R(0), 0)
	b.Exit()
	k := b.MustBuild()
	sys, sw := dryRunWarp(t, k, []uint64{0x10000})
	cand := &compiler.Candidate{StartPC: 0, EndPC: 5}
	lines, bounded := sys.dryRun(sw, cand, 1)
	if len(lines) != 0 || !bounded {
		t.Fatalf("dryRun = (%#x, %v), want empty bounded", lines, bounded)
	}
	if dest := destOf(sys, sw, cand); dest != -1 {
		t.Errorf("dest = %d, want -1", dest)
	}

	// A short spin before the access stays under the bound and resolves.
	short := &compiler.Candidate{StartPC: 0, EndPC: 5}
	k.Instrs[2].B = isa.Imm(16) // loop 16 times instead of a million
	lines, bounded = sys.dryRun(sw, short, 1)
	if bounded || len(lines) != 1 || lines[0] != lineOf(sys, 0x10000) {
		t.Fatalf("short spin dryRun = (%#x, %v), want ([%#x], false)",
			lines, bounded, lineOf(sys, 0x10000))
	}
}

// TestDryRunTaintStopsTrace: values loaded from memory are unknowable in a
// side-effect-free walk. An address or branch predicate derived from one
// must end the trace instead of fabricating accesses.
func TestDryRunTaintStopsTrace(t *testing.T) {
	t.Run("tainted address", func(t *testing.T) {
		b := isa.NewBuilder("chase", 1) // r0=head: pointer chase a->*a
		b.Ld(5, isa.R(0), 0)
		b.Ld(6, isa.R(5), 0)
		b.Exit()
		k := b.MustBuild()
		sys, sw := dryRunWarp(t, k, []uint64{0x10000})
		cand := &compiler.Candidate{StartPC: 0, EndPC: 2}
		lines, bounded := sys.dryRun(sw, cand, 8)
		if bounded || len(lines) != 1 || lines[0] != lineOf(sys, 0x10000) {
			t.Fatalf("dryRun = (%#x, %v), want ([%#x], false)",
				lines, bounded, lineOf(sys, 0x10000))
		}
	})
	t.Run("tainted predicate", func(t *testing.T) {
		b := isa.NewBuilder("datadep", 2) // r0=a, r1=b
		b.Label("top")
		b.Ld(5, isa.R(0), 0)
		b.Setp(6, isa.CmpNE, isa.R(5), isa.Imm(0))
		b.BraIf(isa.R(6), "top")
		b.Ld(7, isa.R(1), 0)
		b.Exit()
		k := b.MustBuild()
		sys, sw := dryRunWarp(t, k, []uint64{0x10000, 0x20000})
		cand := &compiler.Candidate{StartPC: 0, EndPC: 4}
		lines, bounded := sys.dryRun(sw, cand, 8)
		if bounded || len(lines) != 1 || lines[0] != lineOf(sys, 0x10000) {
			t.Fatalf("dryRun = (%#x, %v), want ([%#x], false)",
				lines, bounded, lineOf(sys, 0x10000))
		}
	})
	t.Run("taint cleared by recompute", func(t *testing.T) {
		// A register is tainted by a load, then overwritten with a clean
		// value; an address through it must be usable again.
		b := isa.NewBuilder("retaint", 2) // r0=a, r1=b
		b.Ld(5, isa.R(0), 0)
		b.Add(5, isa.R(1), isa.Imm(0)) // r5 clean again
		b.Ld(6, isa.R(5), 0)
		b.Exit()
		k := b.MustBuild()
		sys, sw := dryRunWarp(t, k, []uint64{0x10000, 0x20000})
		cand := &compiler.Candidate{StartPC: 0, EndPC: 3}
		lines, bounded := sys.dryRun(sw, cand, 8)
		want := []uint64{lineOf(sys, 0x10000), lineOf(sys, 0x20000)}
		if bounded || len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
			t.Fatalf("dryRun = (%#x, %v), want (%#x, false)", lines, bounded, want)
		}
	})
}

// TestDryRunWindowDedup: a multi-access window deduplicates lines and stops
// once the window is full.
func TestDryRunWindowDedup(t *testing.T) {
	b := isa.NewBuilder("dedup", 1) // r0=a
	b.Ld(5, isa.R(0), 0)
	b.Ld(6, isa.R(0), 8)   // same line as the first access
	b.Ld(7, isa.R(0), 512) // new line
	b.Ld(8, isa.R(0), 1024)
	b.Exit()
	k := b.MustBuild()
	sys, sw := dryRunWarp(t, k, []uint64{0x10000})
	cand := &compiler.Candidate{StartPC: 0, EndPC: 4}
	lines, bounded := sys.dryRun(sw, cand, 2)
	want := []uint64{lineOf(sys, 0x10000), lineOf(sys, 0x10200)}
	if bounded || len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
		t.Fatalf("dryRun = (%#x, %v), want (%#x, false)", lines, bounded, want)
	}
}
