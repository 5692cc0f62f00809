package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
)

// checkWakeSets compares every wake set with the state it summarises
// (TestEventLoopMatchesPerCycleStats runs it from the System.afterCycle hook
// after each event-loop cycle):
// an SM is in the runnable set iff its tick would do work, a stack's busy
// set covers its active vaults and its due is the earliest NextEvent over
// the busy ones, a bank is in the L2's busy set iff its queue is non-empty,
// lsuStalled counts the SM's wsWaitLSU warps, and no warp waits in
// wsWaitDep on nothing: its latency has not run out, or its next
// instruction reads a pending register (the wake-up that readies it is on
// the wheel, or is the clear of that register). The per-warp scan takes the
// SMs in turn, a sixteenth of them per call.
func checkWakeSets(sys *System) error {
	has := func(s wakeSet, i int) bool { return s[i>>6]&(1<<(i&63)) != 0 }
	for id, sm := range sys.all {
		if sm.id != id {
			return fmt.Errorf("all[%d] holds SM %d", id, sm.id)
		}
		if got, want := has(sys.runnable, id), sm.runnableNow(); got != want {
			return fmt.Errorf("SM %d: runnable bit %v, runnableNow %v", id, got, want)
		}
		if (int64(id)+sys.now)%16 != 0 {
			continue
		}
		stalled := 0
		for _, sw := range sm.warps {
			if sw != nil && sw.state == wsWaitLSU {
				stalled++
			}
			if sw != nil && waitsOnNothing(sw, sys.now-1) {
				return fmt.Errorf("SM %d warp %d: waits on nothing (latency ran out at %d, cycle %d)",
					id, sw.slot, sw.notReadyUntil, sys.now-1)
			}
		}
		if sm.lsuStalled != stalled {
			return fmt.Errorf("SM %d: lsuStalled %d, %d warps in wsWaitLSU", id, sm.lsuStalled, stalled)
		}
	}
	for _, st := range sys.stacks {
		due := int64(math.MaxInt64)
		for i, v := range st.vaults {
			if v.Active() && !has(st.busy, i) {
				return fmt.Errorf("stack %d vault %d active but not in the busy set", st.id, i)
			}
			if has(st.busy, i) {
				due = minEvent(due, v.NextEvent())
			}
		}
		if st.due != due {
			return fmt.Errorf("stack %d: due %d, earliest busy-vault event %d", st.id, st.due, due)
		}
	}
	for i, b := range sys.l2.banks {
		if got, want := has(sys.l2.busy, i), len(b.queue) > 0; got != want {
			return fmt.Errorf("L2 bank %d: busy bit %v, %d queued", i, got, len(b.queue))
		}
	}
	return nil
}

// waitsOnNothing reports whether sw is parked in wsWaitDep at the end of
// cycle now with nothing left to wait for: its latency has run out and its
// next instruction reads no pending register, so no wake-up is coming.
func waitsOnNothing(sw *smWarp, now int64) bool {
	return sw.state == wsWaitDep && sw.notReadyUntil <= now &&
		(sw.w.Done() || sw.w.NextInstr().Regs&sw.pendingRegs == 0)
}

// checkOffloadJobs: every offload job in flight has its requester parked in
// wsWaitOffload — spawn reads the live-ins from the requester's registers and
// the ack writes the live-outs into them, so a requester that ran meanwhile
// would feed the stack warp wrong values or overwrite its own. Jobs on the
// wheel, in spawn queues and served by stack warps are checked directly;
// those riding a link are covered by a count: the pending-offload counters
// equal the requesters in wsWaitOffload plus those still draining stores
// ahead of their request. The count scans every main-SM warp, so it is taken
// on one cycle in eight (every cycle it costs the test a third).
func checkOffloadJobs(sys *System) error {
	var bad *offloadJob
	var where string
	check := func(job *offloadJob, at string) {
		if bad == nil && job != nil && job.srcWarp.state != wsWaitOffload {
			bad, where = job, at
		}
	}
	for _, n := range sys.wheel.nodes {
		check(n.ev.job, "on the wheel") // nil for free nodes and other kinds
	}
	for _, fe := range sys.wheel.overflow {
		check(fe.ev.job, "on the wheel")
	}
	count := sys.now%8 == 0
	waiting, pending := 0, 0
	for _, sm := range sys.all {
		if !sm.isStack && !count {
			continue
		}
		for _, job := range sm.spawnQ {
			check(job, "in a spawn queue")
		}
		for _, sw := range sm.warps {
			switch {
			case sw == nil:
			case sw.job != nil:
				check(sw.job, "on a stack warp")
			case sw.state == wsWaitOffload || sw.drainCand != nil:
				waiting++
			}
		}
	}
	if bad != nil {
		return fmt.Errorf("job %s: its requester on SM %d is in state %d, want wsWaitOffload",
			where, bad.srcSM.id, bad.srcWarp.state)
	}
	for _, n := range sys.pendingOffloads {
		pending += n
	}
	if count && pending != waiting {
		return fmt.Errorf("%d offloads pending, %d requesters waiting for them", pending, waiting)
	}
	return nil
}

// regHold names one pending register clear: a warp and its register.
type regHold struct {
	sw  *smWarp
	reg isa.Reg
}

// lateHolderCheck returns a check that nothing outliving a warp reaches the
// warp after it was recycled (DESIGN.md "Object lifetimes"), and reports how
// many stale holders it saw — those of a life that has ended, which a warp
// dropped before it retired and which must not act. A warp event on the
// wheel (wevReconsider, wevRegClear, wevLSURetry) or an MSHR waiter reaches
// its warp while stamped with the warp's current life; the warp it reaches
// must be live (not wsRetired, the state of a warp on the free list), and
// the register clears that reach it — L1-hit events and waiters — number at
// most the loads of that register it has pending. A txn that names a warp
// (a store or atomic) in an LSU queue, an L2 bank queue, an L2 MSHR or on
// the wheel finds it live with stores pending; a txn carries no stamp,
// because a warp retires or acks only once its stores drained. A CTA's warp
// list holds exactly its live warps. The check walks every holder, so it
// runs on one cycle in eight (every cycle, it doubles the test's
// time); the holders it looks for stay pending for 8 cycles (an LSU retry)
// to hundreds (a load from DRAM).
func lateHolderCheck() func(sys *System) (stale int, err error) {
	held := map[regHold]int{} // reused from call to call
	return func(sys *System) (stale int, err error) {
		if sys.now%8 != 0 {
			return 0, nil
		}
		clear(held)
		warp := func(sw *smWarp, gen uint32, reg isa.Reg, clears bool, what string) {
			switch {
			case err != nil:
			case sw.gen != gen:
				stale++
			case sw.state == wsRetired:
				err = fmt.Errorf("%s reaches a warp of SM %d on the free list", what, sw.sm.id)
			case clears:
				held[regHold{sw, reg}]++
			}
		}
		store := func(t *txn, what string) {
			if err == nil && t.sw != nil && (t.sw.state == wsRetired || t.sw.pendingStores <= 0) {
				err = fmt.Errorf("a store txn %s reaches a warp of SM %d in state %d with %d stores pending",
					what, t.sw.sm.id, t.sw.state, t.sw.pendingStores)
			}
		}
		event := func(ev *wheelEvent) {
			if ev.sw != nil {
				warp(ev.sw, ev.gen, ev.reg, ev.kind == wevRegClear, "a warp event on the wheel")
			}
			if ev.t != nil {
				store(ev.t, "on the wheel")
			}
		}
		for i := range sys.wheel.nodes {
			event(&sys.wheel.nodes[i].ev) // zero for free nodes
		}
		for i := range sys.wheel.overflow {
			event(&sys.wheel.overflow[i].ev)
		}
		for _, sm := range sys.all {
			for _, e := range sm.mshr {
				for _, wt := range e.waiters {
					warp(wt.sw, wt.gen, wt.reg, true, "an MSHR waiter")
				}
			}
			for _, t := range sm.lsu {
				store(t, "in an LSU queue")
			}
			for _, cta := range sm.ctas {
				if len(cta.warps) != cta.activeWarps && err == nil {
					err = fmt.Errorf("SM %d CTA %d lists %d warps, %d are active", sm.id, cta.id, len(cta.warps), cta.activeWarps)
				}
				for _, sw := range cta.warps {
					if (sw.cta != cta || sw.state == wsRetired) && err == nil {
						err = fmt.Errorf("SM %d CTA %d lists a warp that is not its own or is retired (state %d)", sm.id, cta.id, sw.state)
					}
				}
			}
		}
		for _, b := range sys.l2.banks {
			for _, t := range b.queue {
				store(t, "in an L2 bank queue")
			}
		}
		for _, e := range sys.l2mshr {
			for _, t := range e.waiters {
				store(t, "in an L2 MSHR")
			}
		}
		for h, n := range held {
			if c := int(h.sw.regCount[h.reg]); (n > c || h.sw.pendingRegs&(1<<h.reg) == 0) && err == nil {
				err = fmt.Errorf("%d register clears reach r%d of a warp of SM %d with %d loads of it pending",
					n, h.reg, h.sw.sm.id, c)
			}
		}
		return stale, err
	}
}

// TestWakeSetNext: next walks members in ascending order inside [from, to)
// across word boundaries, and reads the live words — a member added ahead
// of the walk is visited, one behind it is not.
func TestWakeSetNext(t *testing.T) {
	s := newWakeSet(134)
	if len(s) != 3 {
		t.Fatalf("134 members need 3 words, got %d", len(s))
	}
	for _, i := range []int{0, 63, 64, 127, 128, 133} {
		s.set(i)
	}
	walk := func(lo, hi int, visit func(i int)) (got []int) {
		for i := s.next(lo, hi); i >= 0; i = s.next(i+1, hi) {
			got = append(got, i)
			if visit != nil {
				visit(i)
			}
		}
		return got
	}
	for _, tc := range []struct {
		lo, hi int
		want   string
	}{
		{0, 134, "[0 63 64 127 128 133]"},
		{1, 133, "[63 64 127 128]"},
		{63, 65, "[63 64]"},
		{64, 64, "[]"},
		{65, 127, "[]"},
		{129, 134, "[133]"},
	} {
		if got := fmt.Sprint(walk(tc.lo, tc.hi, nil)); got != tc.want {
			t.Errorf("walk [%d, %d) = %s, want %s", tc.lo, tc.hi, got, tc.want)
		}
	}
	got := walk(0, 134, func(i int) {
		if i == 63 {
			s.set(1)   // behind the walk: not visited
			s.set(100) // ahead: visited
			s.clear(64)
		}
	})
	if want := "[0 63 100 127 128 133]"; fmt.Sprint(got) != want {
		t.Errorf("live walk = %v, want %s", got, want)
	}
	if s.empty() || !newWakeSet(70).empty() {
		t.Error("empty() wrong")
	}
}

// executedCycleShapes are three steady states of the event loop, each a
// kernel that never exits so that any number of cycles can be stepped:
// one CTA of an ALU loop (one SM busy, 67 parked), the same loop on every
// SM, and a load loop that streams distinct lines from every SM (L2 misses,
// links and vaults saturated).
var executedCycleShapes = []struct {
	name string
	ctas int
	load bool
}{
	{"one-SM-busy", 1, false},
	{"all-SMs-busy", 68 * 4, false},
	{"vault-bound", 68 * 4, true},
}

// endlessKernel loops forever: an add chain, or (load) a coalesced load of
// a fresh line per warp and iteration from a 4 MiB window at r0.
func endlessKernel(load bool) *isa.Kernel {
	b := isa.NewBuilder("endless", 2) // r0 = base, r1 = total threads * 4
	b.Mov(2, isa.Sp(isa.SpGtid))
	b.Shl(3, isa.R(2), isa.Imm(2)) // byte offset
	b.Label("top")
	if load {
		b.And(4, isa.R(3), isa.Imm(4<<20-1))
		b.Add(4, isa.R(0), isa.R(4))
		b.Ld(5, isa.R(4), 0)
		b.Add(6, isa.R(6), isa.R(5))
		b.Add(3, isa.R(3), isa.R(1))
	} else {
		b.Add(4, isa.R(4), isa.R(2))
		b.Add(5, isa.R(5), isa.R(4))
		b.Add(6, isa.R(6), isa.R(5))
	}
	b.Setp(7, isa.CmpGE, isa.R(2), isa.Imm(0))
	b.BraIf(isa.R(7), "top")
	b.Exit()
	return b.MustBuild()
}

// steadyStepper builds the shape's system, runs it into its steady state
// (every CTA resident, free lists filled) and returns a function that
// executes one cycle of the event loop.
func steadyStepper(tb testing.TB, ctas int, load bool) (step func()) {
	tb.Helper()
	alloc := mem.NewAllocTable()
	base := alloc.Alloc("window", 4<<20)
	l := exec.Launch{Kernel: endlessKernel(load), Grid: ctas, Block: 128,
		Params: []uint64{base, uint64(ctas * 128 * 4)}}
	if err := l.Validate(); err != nil {
		tb.Fatal(err)
	}
	sys := New(BaselineConfig(), mem.NewFlat(), alloc)
	md, err := sys.metadata(l.Kernel)
	if err != nil {
		tb.Fatal(err)
	}
	lc := &launchCtx{l: l, md: md, totalCTAs: l.Grid}
	step = func() { sys.stepCycle(lc, true) }
	for sys.now < 30_000 {
		step()
	}
	if lc.nextCTA != lc.totalCTAs {
		tb.Fatalf("%d of %d CTAs dispatched after warm-up", lc.nextCTA, lc.totalCTAs)
	}
	return step
}

// BenchmarkExecutedCycle prices one cycle of the event loop — one
// stepCycle — in three steady states (ns/op is ns per cycle): the
// in-package twin of the repository benchmark's sim.ns_per_ticked_cycle.
func BenchmarkExecutedCycle(b *testing.B) {
	for _, sh := range executedCycleShapes {
		b.Run(sh.name, func(b *testing.B) {
			step := steadyStepper(b, sh.ctas, sh.load)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestExecutedCycleDoesNotAllocate: in a steady state the event loop — the
// wake sets included — allocates nothing per cycle.
func TestExecutedCycleDoesNotAllocate(t *testing.T) {
	for _, sh := range executedCycleShapes {
		step := steadyStepper(t, sh.ctas, sh.load)
		if n := testing.AllocsPerRun(5000, step); n != 0 {
			t.Errorf("%s: %.3f allocations per cycle, want 0", sh.name, n)
		}
	}
}
