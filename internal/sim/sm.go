package sim

import (
	"math/bits"
	"slices"

	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
)

// memPort is where an SM's LSU submits line transactions: the GPU's shared
// L2 for main SMs, the stack's crossbar router for logic-layer SMs.
type memPort interface {
	accept(now int64, t *txn) bool
}

// SM models one streaming multiprocessor: warp slots, a greedy-then-oldest
// scheduler issuing one warp-instruction per cycle, a stall-on-use
// scoreboard at register granularity, a coalescing LSU with MSHRs, and a
// write-through L1. The same structure serves main-GPU SMs and logic-layer
// (memory stack) SMs; the latter receive offload jobs instead of CTAs.
type SM struct {
	id      int
	isStack bool
	stackID int
	sys     *System
	cfg     *Config
	l1      *cache.Cache
	port    memPort

	warps []*smWarp // fixed slots (nil = free); the first warp allocates them
	ready bitset
	cur   int // GTO: last issued slot

	lsu  []*txn
	mshr map[uint64]*mshrEntry

	ctas   []*ctaCtx // active CTAs (main SMs)
	spawnQ []*offloadJob

	freeSlots  int
	issueWidth int
	lsuStalled int // warps in wsWaitLSU
}

// loadWaiter is one register clear waiting on an L1 miss, stamped with its
// warp's lifetime (smWarp.gen): a warp may retire before a load it never
// read returns, and the fill must not clear a register of the warp's next
// life.
type loadWaiter struct {
	sw  *smWarp
	reg isa.Reg
	gen uint32
}

// mshrEntry is one outstanding L1 miss: the register clears waiting on the
// line. Entries are recycled (System.mshrs) with their waiter capacity.
type mshrEntry struct {
	waiters []loadWaiter
}

// smWarp is one warp: the architectural warp (w, register file included)
// and its scheduling state. It is recycled whole (System.warps) from
// dispatch or spawn to retirement or ack. gen counts its lives: a wheel
// event or MSHR waiter filed for it carries the gen of the life that filed
// it, and acts only if the warp is still in that life.
type smWarp struct {
	sm   *SM
	slot int
	w    exec.Warp
	cta  *ctaCtx
	md   *compiler.Metadata

	state         wstate
	gen           uint32
	pendingRegs   uint64
	regCount      [isa.MaxRegs]uint16
	pendingStores int
	notReadyUntil int64

	// Region bookkeeping on main SMs: the candidate currently being
	// executed inline (suppresses re-deciding at the loop header), and
	// the pending offload awaiting store drain.
	regionActive *compiler.Candidate
	drainCand    *compiler.Candidate
	drainDest    int
	drainVault   int

	// Learning-phase collection.
	collect *collectState

	// Stack-SM side: the offload job this warp serves, and whether its
	// spawn consumed a warp slot (ideal-mode oversubscription spawns
	// without one; its retirement must not mint a free slot).
	job      *offloadJob
	tookSlot bool
}

// ctaCtx is one resident CTA, recycled (System.ctas) from dispatch to the
// retirement of its last warp. warps lists its live warps: retire removes
// a warp before the warp goes back.
type ctaCtx struct {
	id          int
	lc          *launchCtx
	shared      []uint32
	activeWarps int
	atBarrier   int
	warps       []*smWarp
}

type collectState struct {
	cand      *compiler.Candidate
	lines     []uint64 // each step's lines in order, first = home-defining
	memInstrs int      // warp memory instructions observed (learnWindow)
}

func newSM(sys *System, id int, isStack bool, stackID int, warpSlots int) *SM {
	c := sys.cfg
	width := c.IssueWidth
	if isStack {
		width = c.StackIssueWidth
	}
	if width < 1 {
		width = 1
	}
	return &SM{
		id: id, isStack: isStack, stackID: stackID, sys: sys, cfg: &sys.cfg,
		l1:         cache.New(c.L1Bytes, c.L1Ways, c.LineBytes),
		ready:      newBitset(max(warpSlots, 64)),
		mshr:       make(map[uint64]*mshrEntry),
		freeSlots:  warpSlots,
		issueWidth: width,
	}
}

func (sm *SM) setReady(sw *smWarp) {
	sw.state = wsReady
	sm.ready.set(sw.slot)
	sm.sys.runnable.set(sm.id)
}

// enqueueJob hands the SM an offload job to spawn on its next tick.
func (sm *SM) enqueueJob(job *offloadJob) {
	sm.spawnQ = append(sm.spawnQ, job)
	sm.sys.runnable.set(sm.id)
}

func (sm *SM) unready(sw *smWarp, st wstate) {
	sw.state = st
	sm.ready.clear(sw.slot)
}

// reconsider re-evaluates whether a waiting warp can issue (called when a
// register clears, a store acks, or a scheduled wakeup fires). Idempotent;
// duplicate wakeups are harmless.
func (sm *SM) reconsider(sw *smWarp, now int64) {
	if sw.state != wsWaitDep {
		return
	}
	if now < sw.notReadyUntil {
		sm.wakeAfter(sw.notReadyUntil-now, wevReconsider, sw, 0)
		return
	}
	if !sw.w.Done() && sw.w.NextInstr().Regs&sw.pendingRegs != 0 {
		return // a later register clear will call us again
	}
	sm.setReady(sw)
}

// blockOnNext parks the warp until the next instruction's registers are
// available and the pipeline latency has elapsed.
func (sm *SM) blockOnNext(sw *smWarp, lat int64, now int64) {
	sw.notReadyUntil = now + lat
	sm.unready(sw, wsWaitDep)
	sm.wakeAfter(lat, wevReconsider, sw, 0)
}

// wakeAfter files a warp event of kind on the wheel, stamped with sw's
// current life.
func (sm *SM) wakeAfter(delay int64, kind uint8, sw *smWarp, reg isa.Reg) {
	sm.sys.wheel.afterEvent(delay, wheelEvent{kind: kind, reg: reg, gen: sw.gen, sw: sw})
}

// regClear is the load-return event for one line transaction feeding reg.
func (sm *SM) regClear(sw *smWarp, reg isa.Reg, now int64) {
	if sw.regCount[reg] > 0 {
		sw.regCount[reg]--
	}
	if sw.regCount[reg] == 0 {
		sw.pendingRegs &^= 1 << reg
		sm.reconsider(sw, now)
	}
}

// storeAck is the write-through acknowledgment event.
func (sm *SM) storeAck(sw *smWarp, now int64) {
	sw.pendingStores--
	if sw.pendingStores > 0 {
		return
	}
	switch sw.state {
	case wsWaitDrain:
		sm.drainComplete(sw, now)
	}
}

// drainComplete fires when a warp waiting on store drain has zero pending
// stores: barrier entry, offload launch, retirement, or offload-ack send.
func (sm *SM) drainComplete(sw *smWarp, now int64) {
	switch {
	case sw.job != nil && sw.w.Done():
		sm.sys.sendOffloadAck(sw, now)
	case sw.w.Done():
		sm.retire(sw, now)
	case sw.drainCand != nil:
		cand := sw.drainCand
		sw.drainCand = nil
		sm.sys.launchOffload(sm, sw, cand, sw.drainDest, sw.drainVault, now)
	default:
		// Barrier entry waited on drain; re-issue takes the Bar path.
		sm.setReady(sw)
	}
}

// retire ends a main-SM warp: its slot, its place in its CTA's warp list
// and the warp itself go back.
func (sm *SM) retire(sw *smWarp, now int64) {
	cta := sw.cta
	i := slices.Index(cta.warps, sw)
	cta.warps = slices.Delete(cta.warps, i, i+1)
	sm.free(sw)
	cta.activeWarps--
	sm.checkBarrier(cta, now)
	if cta.activeWarps == 0 {
		sm.releaseCTA(cta)
	}
}

// newWarp takes a warp from the System's free list into a free slot; the
// caller resets sw.w.
func (sm *SM) newWarp(cta *ctaCtx, md *compiler.Metadata, job *offloadJob) *smWarp {
	sw := sm.sys.warps.get()
	slot := sm.findFreeSlot()
	*sw = smWarp{sm: sm, slot: slot, w: sw.w, cta: cta, md: md, job: job, gen: sw.gen}
	sm.warps[slot] = sw
	return sw
}

// free empties sw's slot and returns sw to the free list, in its next life:
// the events and MSHR waiters of the life that ends are stale from here on.
func (sm *SM) free(sw *smWarp) {
	sm.unready(sw, wsRetired)
	sm.warps[sw.slot] = nil
	if sw.job == nil || sw.tookSlot {
		sm.freeSlots++
	}
	sw.gen++
	sm.sys.warps.put(sw)
}

func (sm *SM) releaseCTA(done *ctaCtx) {
	i := slices.Index(sm.ctas, done)
	sm.ctas = slices.Delete(sm.ctas, i, i+1)
	done.lc.doneCTAs++
	*done = ctaCtx{shared: done.shared[:0], warps: done.warps[:0]}
	sm.sys.ctas.put(done)
}

func (sm *SM) enterBarrier(sw *smWarp, now int64) {
	sm.unready(sw, wsAtBarrier)
	sw.cta.atBarrier++
	sm.checkBarrier(sw.cta, now)
}

func (sm *SM) checkBarrier(cta *ctaCtx, now int64) {
	if cta.atBarrier == 0 || cta.atBarrier < cta.activeWarps {
		return
	}
	cta.atBarrier = 0
	for _, sw := range cta.warps {
		if sw.state == wsAtBarrier {
			sw.state = wsWaitDep
			sm.reconsider(sw, now)
		}
	}
}

// dispatchCTAs pulls at most one waiting CTA onto this SM; the system's
// dispatch loop sweeps SMs round-robin so CTAs spread across the GPU the
// way real hardware schedulers balance them.
func (sm *SM) dispatchCTAs(lc *launchCtx) {
	wpc := lc.l.WarpsPerCTA()
	if len(sm.ctas) < sm.cfg.MaxCTAsPerSM && sm.freeSlots >= wpc && lc.nextCTA < lc.totalCTAs {
		ctaID := lc.nextCTA
		lc.nextCTA++
		cta := sm.sys.ctas.get()
		n := (lc.l.Kernel.SharedBytes + 3) / 4
		shared := slices.Grow(cta.shared, n)[:n]
		clear(shared)
		*cta = ctaCtx{id: ctaID, lc: lc, shared: shared, activeWarps: wpc, warps: cta.warps}
		for wi := 0; wi < wpc; wi++ {
			sw := sm.newWarp(cta, lc.md, nil)
			sw.w.Reset(lc.l.Kernel, lc.md.Info, exec.WarpInfo{
				CtaID: ctaID, WarpInCTA: wi, NTid: lc.l.Block, NCtaid: lc.l.Grid,
			}, cta.shared, lc.l.Params)
			cta.warps = append(cta.warps, sw)
			sm.freeSlots--
			sm.setReady(sw)
		}
		sm.ctas = append(sm.ctas, cta)
	}
}

func (sm *SM) findFreeSlot() int {
	if sm.warps == nil { // the SM's first warp: every slot is free
		sm.warps = make([]*smWarp, sm.freeSlots)
	}
	for i, w := range sm.warps {
		if w == nil {
			return i
		}
	}
	// Ideal offloading may oversubscribe stack SMs: grow.
	sm.warps = append(sm.warps, nil)
	if len(sm.warps) > len(sm.ready.w)*64 {
		sm.ready.w = append(sm.ready.w, 0)
	}
	return len(sm.warps) - 1
}

// pickWarp implements greedy-then-oldest.
func (sm *SM) pickWarp() *smWarp {
	if sm.cur < len(sm.warps) && sm.ready.get(sm.cur) {
		return sm.warps[sm.cur]
	}
	i := sm.ready.first()
	if i < 0 {
		return nil
	}
	sm.cur = i
	return sm.warps[i]
}

// tick advances the SM by one cycle.
func (sm *SM) tick(now int64) {
	// 1. Drain LSU transactions into the memory system.
	for i := 0; i < sm.issueWidth && len(sm.lsu) > 0; i++ {
		if !sm.port.accept(now, sm.lsu[0]) {
			break
		}
		n := copy(sm.lsu, sm.lsu[1:])
		sm.lsu = sm.lsu[:n]
		sm.retryLSUStalls(now)
	}
	// 2. Stack SMs spawn queued offload jobs into free warp slots.
	if sm.isStack {
		sm.trySpawn(now)
	}
	// 3. Issue warp-instructions.
	for i := 0; i < sm.issueWidth; i++ {
		sw := sm.pickWarp()
		if sw == nil {
			break
		}
		sm.issue(sw, now)
	}
}

// retryLSUStalls re-readies warps that stalled on a full LSU queue.
func (sm *SM) retryLSUStalls(now int64) {
	if sm.lsuStalled == 0 || len(sm.lsu) >= sm.cfg.LSUQueue {
		return
	}
	for _, sw := range sm.warps {
		if sw != nil && sw.state == wsWaitLSU {
			sm.setReady(sw)
		}
	}
	sm.lsuStalled = 0
}

// issue executes one instruction of sw and charges its timing.
func (sm *SM) issue(sw *smWarp, now int64) {
	w := &sw.w

	// Retirement path: the warp finished on a previous step.
	if w.Done() {
		if sw.pendingStores > 0 {
			sm.unready(sw, wsWaitDrain)
			return
		}
		if sw.job != nil {
			sm.sys.sendOffloadAck(sw, now)
		} else {
			sm.retire(sw, now)
		}
		return
	}

	pc := w.PC()

	// Region tracking on main SMs: leaving an active region re-arms the
	// offload decision and finalizes learning collection.
	if sw.regionActive != nil && (pc < sw.regionActive.StartPC || pc >= sw.regionActive.EndPC) {
		if sw.collect != nil {
			sm.sys.finishCollection(sw)
		}
		sw.regionActive = nil
	}

	// Offload / learning hook at candidate region entries.
	if !sm.isStack && sw.regionActive == nil && sw.md != nil {
		if cand := sw.md.AtPC(pc); cand != nil {
			sw.regionActive = cand
			if sm.sys.handleCandidateEntry(sm, sw, cand, now) {
				return // warp state changed (offloading)
			}
		}
	}

	d := w.NextInstr()

	switch d.Class {
	case isa.ClassBarrier:
		if sw.pendingStores > 0 {
			sm.unready(sw, wsWaitDrain)
			sm.sys.stats.StoreDrainStalls++
			return
		}
		res := w.Step(&sm.sys.global)
		sm.countInstr(res)
		sm.enterBarrier(sw, now)

	case isa.ClassMem:
		// The LSU may transiently overshoot by one warp's coalesced
		// transactions; admission is gated on the pre-issue depth.
		if len(sm.lsu) >= sm.cfg.LSUQueue ||
			len(sm.mshr) >= sm.cfg.MSHRsPerSM {
			sm.unready(sw, wsWaitLSU)
			sm.lsuStalled++
			// MSHR-full wakeups ride on fills; LSU wakeups on drain.
			if len(sm.mshr) >= sm.cfg.MSHRsPerSM {
				sm.wakeAfter(lsuRetryDelay, wevLSURetry, sw, 0)
			}
			return
		}
		res := w.Step(&sm.sys.global)
		sm.countInstr(res)
		lines := sm.sys.global.Lines()
		if sw.collect != nil {
			sm.sys.recordCollection(sw, lines)
		}
		sm.issueMem(sw, res, lines, now)
		sm.blockOnNext(sw, sm.sys.lat[d.Lat], now)

	default:
		res := w.Step(&sm.sys.global)
		sm.countInstr(res)
		sm.blockOnNext(sw, sm.sys.lat[d.Lat], now)
	}
}

func (sm *SM) countInstr(res exec.StepResult) {
	st := &sm.sys.stats
	st.WarpInstrs++
	st.ThreadInstrs += uint64(res.ActiveLanes)
	if sm.isStack {
		st.StackThreadInstrs += uint64(res.ActiveLanes)
	}
}

// issueMem routes the step's line transactions through L1 / MSHRs / the
// memory port.
func (sm *SM) issueMem(sw *smWarp, res exec.StepResult, lines []exec.Line, now int64) {
	isStore := res.Op.IsStore() || res.Op == isa.OpAtomAdd
	if isStore {
		sw.pendingStores += len(lines)
		if job := sw.job; job != nil && sm.cfg.Coherence {
			for _, li := range lines {
				if n := len(job.dirty); n == 0 || job.dirty[n-1] != li.Addr {
					job.dirty = append(job.dirty, li.Addr)
				}
			}
		}
	}
	reg := res.Dst
	if res.Op.IsLoad() || res.Op == isa.OpAtomAdd {
		sw.pendingRegs |= 1 << reg
	}
	for _, li := range lines {
		if isStore {
			// Write-through, no-allocate: touch L1 LRU if present.
			sm.l1.Lookup(li.Addr)
			t := sm.sys.newTxn(txn{line: li.Addr, bytes: bits.OnesCount32(li.Lanes) * isa.WordBytes, store: true,
				atom: res.Op == isa.OpAtomAdd, sm: sm, sw: sw, reg: reg})
			if res.Op == isa.OpAtomAdd {
				sw.regCount[reg]++
			}
			sm.sys.inflight++
			sm.lsu = append(sm.lsu, t)
			continue
		}
		// Load path.
		sw.regCount[reg]++
		if e, outstanding := sm.mshr[li.Addr]; outstanding {
			e.waiters = append(e.waiters, loadWaiter{sw: sw, reg: reg, gen: sw.gen})
			continue
		}
		if sm.l1.Lookup(li.Addr) {
			sm.noteL1(true)
			sm.wakeAfter(sm.cfg.L1Lat, wevRegClear, sw, reg)
			continue
		}
		sm.noteL1(false)
		e := sm.sys.mshrs.get()
		*e = mshrEntry{waiters: append(e.waiters[:0], loadWaiter{sw: sw, reg: reg, gen: sw.gen})}
		sm.mshr[li.Addr] = e
		sm.sys.inflight++
		sm.lsu = append(sm.lsu, sm.sys.newTxn(txn{line: li.Addr, sm: sm}))
	}
}

func (sm *SM) noteL1(hit bool) {
	st := &sm.sys.stats
	switch {
	case sm.isStack && hit:
		st.StackL1Hits++
	case sm.isStack:
		st.StackL1Misses++
	case hit:
		st.L1Hits++
	default:
		st.L1Misses++
	}
}

// fill delivers a returned line: L1 allocation plus waiter register clears.
func (sm *SM) fill(line uint64, now int64) {
	sm.l1.Fill(line)
	if e := sm.mshr[line]; e != nil {
		delete(sm.mshr, line)
		for _, wt := range e.waiters {
			if wt.gen == wt.sw.gen {
				sm.regClear(wt.sw, wt.reg, now)
			}
		}
		sm.sys.mshrs.put(e)
	}
	// MSHR space freed: wake MSHR-stalled warps.
	sm.retryLSUStalls(now)
}

// runnableNow reports whether the SM's tick would do work this cycle:
// ready warps to issue, LSU transactions to drain, or offload jobs to
// spawn. Wake-ups on the wheel are timed, not busy-now.
func (sm *SM) runnableNow() bool {
	return sm.ready.any() || len(sm.lsu) > 0 || len(sm.spawnQ) > 0
}

// busy reports whether the SM still has unfinished work.
func (sm *SM) busy() bool {
	if len(sm.lsu) > 0 || len(sm.mshr) > 0 || len(sm.spawnQ) > 0 || len(sm.ctas) > 0 {
		return true
	}
	for _, sw := range sm.warps {
		if sw != nil {
			return true
		}
	}
	return false
}
