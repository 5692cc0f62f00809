package sim

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
)

// whileLoopEnv builds a while-shaped workload: the loop tests its bound at
// the top and its latch is an unconditional branch, so analyzeTrips cannot
// derive a conditional hint (no `bra p, top` latch) and the candidate
// carries TripInfo{}. With n == 0 every warp enters the region, the scalar
// dry run falls out of the loop before reaching a memory instruction, and
// the destination dry run finds no access — the path counted as the
// "nodest" gate. Eight loads per iteration keep the block
// beneficial at trips=1 (8*16.5 > (3+1)*32) so the candidate survives
// static marking.
func whileLoopEnv(t testing.TB, ctas, n int) *workloadEnv {
	t.Helper()
	b := isa.NewBuilder("whileloop", 3) // r0=a, r1=out, r2=n
	b.Mov(5, isa.Sp(isa.SpGtid))
	b.MovI(6, 0) // k
	b.Label("top")
	b.Setp(7, isa.CmpLT, isa.R(6), isa.R(2))
	b.BraIfNot(isa.R(7), "end")
	b.Shl(8, isa.R(6), isa.Imm(2))
	b.Add(9, isa.R(0), isa.R(8))
	b.Ld(10, isa.R(9), 0)
	b.Ld(11, isa.R(9), 4)
	b.Ld(12, isa.R(9), 8)
	b.Ld(13, isa.R(9), 12)
	b.Ld(14, isa.R(9), 16)
	b.Ld(15, isa.R(9), 20)
	b.Ld(16, isa.R(9), 24)
	b.Ld(17, isa.R(9), 28)
	b.Add(6, isa.R(6), isa.Imm(1))
	b.Bra("top")
	b.Label("end")
	b.Shl(18, isa.R(5), isa.Imm(2))
	b.Add(19, isa.R(1), isa.R(18))
	b.St(isa.R(19), 0, isa.R(6))
	b.Exit()
	k := b.MustBuild()

	env := &workloadEnv{mem: mem.NewFlat(), alloc: mem.NewAllocTable()}
	threads := ctas * 128
	aBytes := 4*n + 32 // slack for the 28 B lookahead of the last iteration
	a := env.alloc.Alloc("a", uint64(aBytes))
	out := env.alloc.Alloc("out", uint64(4*threads))
	for i := 0; i < aBytes/4; i++ {
		env.mem.Store4(a+uint64(4*i), uint32(i%331))
	}
	env.launches = []exec.Launch{{
		Kernel: k, Grid: ctas, Block: 128,
		Params: []uint64{a, out, uint64(n)},
	}}
	return env
}

// TestNoDestGateCountedAndTraced: a failed destination dry run must be
// counted (Stats + per-PC table), traced (EvGate "nodest"), and must leave
// the warp running the region inline with correct results. A failure that
// fell through silently would leave CandidateInstances unreconcilable with
// the gate counters.
func TestNoDestGateCountedAndTraced(t *testing.T) {
	env := whileLoopEnv(t, 8, 0) // zero trips: every dry run exits the region
	want := refMem(t, env)
	cfg := DefaultConfig()
	cfg.Mapping = MapBaseline // learning off: every entry is a gate decision
	o := obs.New()
	sink := &obs.CollectSink{}
	o.Trace = sink
	cfg.Observer = o
	sys := runSim(t, cfg, env)
	if ok, addr := mem.Equal(want, sys.global.Mem); !ok {
		t.Fatalf("nodest-gated run diverged from reference at %#x", addr)
	}
	st := sys.Stats()
	if st.CandidateInstances == 0 {
		t.Fatal("while loop was not marked as a candidate")
	}
	if st.OffloadsSent != 0 {
		t.Fatalf("zero-trip loop offloaded %d times", st.OffloadsSent)
	}
	if st.OffloadsSkippedNoDest != st.CandidateInstances {
		t.Errorf("nodest skips = %d, want every candidate instance (%d)",
			st.OffloadsSkippedNoDest, st.CandidateInstances)
	}
	// Per-PC attribution: one decision row, all nodest, gate rate 1.
	pcs := st.PCStats.PCs()
	if len(pcs) != 1 {
		t.Fatalf("PCStats rows = %d, want 1 (pcs %v)", len(pcs), pcs)
	}
	g := st.PCStats[pcs[0]]
	if g.SkippedNoDest != st.OffloadsSkippedNoDest || g.GateRate() != 1 {
		t.Errorf("per-PC row = %+v, want all-nodest with gate rate 1", g)
	}
	// Trace: one EvGate per skip, reason "nodest".
	nodest := 0
	for _, ev := range sink.Events() {
		if ev.Kind == obs.EvGate {
			if ev.Reason != "nodest" {
				t.Fatalf("unexpected gate reason %q", ev.Reason)
			}
			if ev.Stack != -1 {
				t.Fatalf("nodest gate carries stack %d, want -1 (no destination)", ev.Stack)
			}
			nodest++
		}
	}
	if uint64(nodest) != st.OffloadsSkippedNoDest {
		t.Errorf("nodest trace events = %d, stats say %d", nodest, st.OffloadsSkippedNoDest)
	}
	if reg := o.Registry; reg.Counter("offload.skipped_nodest").Value() != st.OffloadsSkippedNoDest {
		t.Errorf("metrics counter = %d, stats say %d",
			reg.Counter("offload.skipped_nodest").Value(), st.OffloadsSkippedNoDest)
	}
}

// TestPerPCTableMatchesAggregates: the per-PC decision table must sum
// exactly to the aggregate Stats counters, and every candidate entry must
// be accounted for — the conservation invariant
//
//	CandidateInstances == OffloadsSent + OffloadsSkipped() + LearnEntries
//
// that the nodest fix makes possible. Run with learning on (MapTransparent)
// so the LearnEntries term is exercised too.
func TestPerPCTableMatchesAggregates(t *testing.T) {
	env := streamEnv(t, 16, 16)
	// Each warp passes the candidate entry exactly once, and a single small
	// launch is fully absorbed by the learning phase; run the kernel twice
	// so the second launch exercises the post-learning gate path too.
	env.launches = append(env.launches, env.launches[0])
	cfg := DefaultConfig() // MapTransparent: learning phase included
	sys := runSim(t, cfg, env)
	st := sys.Stats()
	if st.OffloadsSent == 0 || st.LearnEntries == 0 {
		t.Fatalf("need sends (%d) and learn entries (%d) for the check to bite",
			st.OffloadsSent, st.LearnEntries)
	}
	var sent, cond, busy, full, alu, nodest, learn uint64
	for _, pc := range st.PCStats.PCs() {
		g := st.PCStats[pc]
		sent += g.Sent
		cond += g.SkippedCond
		busy += g.SkippedBusy
		full += g.SkippedFull
		alu += g.SkippedALU
		nodest += g.SkippedNoDest
		learn += g.LearnEntries
	}
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"sent", sent, st.OffloadsSent},
		{"cond", cond, st.OffloadsSkippedCond},
		{"busy", busy, st.OffloadsSkippedBusy},
		{"full", full, st.OffloadsSkippedFull},
		{"alu", alu, st.OffloadsSkippedALU},
		{"nodest", nodest, st.OffloadsSkippedNoDest},
		{"learn", learn, st.LearnEntries},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("per-PC %s sums to %d, aggregate says %d", c.name, c.got, c.want)
		}
	}
	if got := st.OffloadsSent + st.OffloadsSkipped() + st.LearnEntries; got != st.CandidateInstances {
		t.Errorf("conservation broken: sent+skipped+learn = %d, candidate instances = %d",
			got, st.CandidateInstances)
	}
}

// TestFreeSlotsNeverExceedCapacity: regression for the ideal-mode slot
// asymmetry. Oversubscribed spawns take no slot, so their retirement must
// not mint one: after spawning capacity+K jobs and retiring all of them,
// freeSlots must equal the configured capacity exactly (the old code
// incremented unconditionally on ack and ended at capacity+K).
func TestFreeSlotsNeverExceedCapacity(t *testing.T) {
	env := shortLoopEnv(t, 64)
	cfg := DefaultConfig()
	cfg.Policy = "ideal"
	cfg.Mapping = MapBaseline
	cfg.MaxCycles = 50_000_000
	m := env.mem.Clone()
	alloc := mem.NewAllocTable()
	for _, r := range env.alloc.Ranges {
		alloc.Alloc(r.Name, r.Size)
	}
	sys := New(cfg, m, alloc)
	k := env.launches[0].Kernel
	md, err := sys.metadata(k)
	if err != nil {
		t.Fatal(err)
	}
	cand := md.Candidates[0]
	// A source warp positioned at the candidate entry supplies live-in
	// registers, active mask and warp identity for the forged jobs (and
	// receives their live-outs).
	w := exec.NewWarp(k, md.Info, exec.WarpInfo{
		CtaID: 0, WarpInCTA: 0, NTid: 128, NCtaid: 64,
	}, nil, env.launches[0].Params)
	for g := exec.NewGlobal(m); w.PC() != cand.StartPC; {
		w.Step(g)
	}
	stackSM := sys.stacks[0].sms[0]
	srcWarp := &smWarp{sm: stackSM, w: *w, md: md}
	capSlots := cfg.StackWarps()
	if stackSM.freeSlots != capSlots {
		t.Fatalf("fresh stack SM has %d free slots, config says %d", stackSM.freeSlots, capSlots)
	}
	n := capSlots + 3
	for i := 0; i < n; i++ {
		stackSM.spawnQ = append(stackSM.spawnQ, &offloadJob{
			cand: cand, srcSM: stackSM, srcWarp: srcWarp, dest: 0,
		})
	}
	stackSM.trySpawn(1) // ideal mode drains the whole queue, oversubscribing
	if stackSM.freeSlots != 0 {
		t.Fatalf("freeSlots = %d after spawning %d jobs into %d slots, want 0",
			stackSM.freeSlots, n, capSlots)
	}
	spawned := append([]*smWarp(nil), stackSM.warps...)
	live := 0
	for _, sw := range spawned {
		if sw != nil {
			live++
		}
	}
	if live != n {
		t.Fatalf("ideal mode spawned %d warps, want all %d (oversubscription)", live, n)
	}
	// Retire every stack warp. The event wheel is never ticked, so the
	// scheduled finishOffload callbacks stay pending — only the slot
	// accounting of sendOffloadAck is under test here.
	for _, sw := range spawned {
		if sw == nil {
			continue
		}
		sw.w.SkipTo(cand.EndPC) // mark region complete
		sys.sendOffloadAck(sw, 2)
		if stackSM.freeSlots > capSlots {
			t.Fatalf("freeSlots = %d exceeds capacity %d mid-retirement",
				stackSM.freeSlots, capSlots)
		}
	}
	if stackSM.freeSlots != capSlots {
		t.Fatalf("freeSlots = %d after retiring all warps, want exactly %d",
			stackSM.freeSlots, capSlots)
	}
}
