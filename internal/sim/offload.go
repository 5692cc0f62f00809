package sim

import (
	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/offload"
)

// offloadJob carries one offloaded candidate instance: the request the
// Offload Controller packs (§4.2) and the acknowledgment state (dirty-line
// list — §4.4.2). What the packets carry of the requesting warp — live-in
// and live-out registers, active mask, warp identity — stays in that warp,
// which waits in wsWaitOffload from launchOffload to finishOffload: spawn
// reads it and sendOffloadAck writes the live-outs into it. Jobs are
// recycled (System.jobs) from buildJob to finishOffload, keeping the emptied
// dirty set and deliver.
type offloadJob struct {
	cand    *compiler.Candidate
	srcSM   *SM
	srcWarp *smWarp
	dest    int
	vault   int // destination vault for vault-granular policies, else -1
	dirty   map[uint64]struct{}

	// deliver is the link callback of both of the job's packets, bound to
	// job.delivered once, when the job is first created: the request
	// reaching the stack, then (acked) the acknowledgment reaching the GPU.
	acked   bool
	deliver func(now int64)
}

// delivered is deliver's target.
func (job *offloadJob) delivered(now int64) {
	sys := job.srcSM.sys
	if job.acked {
		sys.finishOffload(job, now)
		return
	}
	sys.stacks[job.dest].spawnTarget().enqueueJob(job)
}

// polEnv binds the simulator's state at one deciding cycle to the
// offload.Env interface the policy hooks consume.
type polEnv struct {
	sys *System
	now int64
}

func (e polEnv) Stacks() int               { return e.sys.cfg.Stacks }
func (e polEnv) Vaults() int               { return e.sys.cfg.VaultsPerStack }
func (e polEnv) StackOf(line uint64) int   { return e.sys.stackOf(line) }
func (e polEnv) VaultOf(line uint64) int   { return mapping.VaultOf(line, e.sys.cfg.VaultsPerStack) }
func (e polEnv) Pending(s int) int         { return e.sys.pendingOffloads[s] }
func (e polEnv) PendingVault(s, v int) int { return e.sys.pendingVault[s][v] }
func (e polEnv) StackCap() int             { return e.sys.cfg.StackSMs * e.sys.cfg.StackWarps() }
func (e polEnv) TXBusy(s int) bool         { return e.sys.txLinks[s].Busy(e.sys.cfg.BusyThreshold, e.now) }
func (e polEnv) RXBusy(s int) bool         { return e.sys.rxLinks[s].Busy(e.sys.cfg.BusyThreshold, e.now) }
func (e polEnv) ALUGate() float64          { return e.sys.cfg.ALUGate }
func (e polEnv) Controlled() bool          { return e.sys.cfg.Offload == OffloadControlled }

// gate records one suppressed offload everywhere it is accounted: the
// aggregate per-reason counter, the per-PC decision table, and (when an
// observer is attached) the metrics counter plus a gate trace event. Every
// gate site goes through here so the accounting stays exhaustive.
func (sys *System) gate(now int64, sm *SM, cand *compiler.Candidate, dest int, reason string) {
	switch reason {
	case offload.ReasonBusy:
		sys.stats.OffloadsSkippedBusy++
	case offload.ReasonFull:
		sys.stats.OffloadsSkippedFull++
	case offload.ReasonCond:
		sys.stats.OffloadsSkippedCond++
	case offload.ReasonALU:
		sys.stats.OffloadsSkippedALU++
	case offload.ReasonNoDest:
		sys.stats.OffloadsSkippedNoDest++
	case offload.ReasonDestBound:
		sys.stats.OffloadsSkippedDestBound++
	case offload.ReasonSplit:
		sys.stats.OffloadsSkippedSplit++
	case offload.ReasonVaultFull:
		sys.stats.OffloadsSkippedVaultFull++
	}
	sys.stats.PCStats.At(cand.StartPC).CountSkip(reason)
	sys.obGate(now, sm, cand, dest, reason)
}

// handleCandidateEntry runs when a main-SM warp reaches a candidate's start
// PC: the policy hook sequence (PreGate → dry run → Dest → Gate) decides
// whether the instance offloads. It returns true when the warp was captured
// (offload in progress); on false the warp executes the region inline.
func (sys *System) handleCandidateEntry(sm *SM, sw *smWarp, cand *compiler.Candidate, now int64) bool {
	sys.stats.CandidateInstances++
	if ob := sys.ob; ob != nil {
		ob.candidates.Inc()
		ob.o.Emit(obs.Event{Cycle: now, Kind: obs.EvCandidate, SM: sm.id, PC: cand.StartPC})
	}
	if sys.learning {
		sys.stats.LearnEntries++
		sys.stats.PCStats.At(cand.StartPC).LearnEntries++
		c := sys.collects.get()
		*c = collectState{cand: cand, addrs: c.addrs[:0]}
		sw.collect = c
		return false
	}
	if sys.cfg.Offload == OffloadOff {
		return false
	}

	env := polEnv{sys: sys, now: now}
	req := offload.Request{
		Cand: cand, Trips: -1, Stack: -1, Vault: -1,
		HasLeader: sw.w.LeaderLane() >= 0,
	}

	// Observe the leader lane's trip count for every conditional-hinted
	// candidate (§4.2 step 1); the per-PC record feeds compiler.Refine's
	// re-tagging even when the hint is below the offload threshold.
	if sys.ptraits.ObserveTrips {
		if cond := cand.Trip.Cond; cond != nil && !cand.Trip.Known {
			if lane := sw.w.LeaderLane(); lane >= 0 {
				ind := int64(sw.w.Regs[cond.IndReg][lane])
				var bound int64
				if cond.BoundIsReg {
					bound = int64(sw.w.Regs[cond.BoundReg][lane])
				}
				req.Trips = cond.Trips(ind, bound)
				g := sys.stats.PCStats.At(cand.StartPC)
				g.TripObs++
				if req.Trips > 0 {
					g.TripSum += uint64(req.Trips)
				}
			}
		}
	}

	if r := sys.policy.PreGate(env, &req); r != "" {
		sys.gate(now, sm, cand, -1, r)
		return false
	}

	req.Lines, req.Bounded = sys.dryRun(sw, cand, sys.ptraits.DryRunAccesses)
	if r := sys.policy.Dest(env, &req); r != "" {
		sys.gate(now, sm, cand, -1, r)
		return false
	}
	dest := req.Stack

	if r := sys.policy.Gate(env, &req); r != "" {
		sys.gate(now, sm, cand, dest, r)
		return false
	}

	if sys.ptraits.ZeroCost {
		// Zero-cost transport: the job materializes in the destination
		// stack's spawn queue this cycle, skipping the offload pipeline,
		// the TX link, and the store drain.
		sm.unready(sw, wsWaitOffload)
		job := sys.buildJob(sm, sw, cand, dest, req.Vault)
		sys.pendingOffloads[dest]++
		sys.stats.OffloadsSent++
		sys.stats.PCStats.At(cand.StartPC).Sent++
		if ob := sys.ob; ob != nil {
			ob.sent.Inc()
			ob.o.Emit(obs.Event{Cycle: now, Kind: obs.EvSend, SM: sm.id, Stack: dest,
				PC: cand.StartPC})
		}
		sys.stacks[dest].spawnTarget().enqueueJob(job)
		return true
	}

	sys.pendingOffloads[dest]++
	if req.Vault >= 0 {
		sys.pendingVault[dest][req.Vault]++
	}
	if sys.cfg.Coherence && sw.pendingStores > 0 {
		// §4.4.2 step 1: push all memory update traffic to memory
		// before issuing the offload request.
		sw.drainCand = cand
		sw.drainDest = dest
		sw.drainVault = req.Vault
		sm.unready(sw, wsWaitDrain)
		sys.stats.StoreDrainStalls++
		if sys.ob != nil {
			sys.ob.drainStalls.Inc()
		}
		return true
	}
	sys.launchOffload(sm, sw, cand, dest, req.Vault, now)
	return true
}

// buildJob packs one offload request for the parked warp sw.
func (sys *System) buildJob(sm *SM, sw *smWarp, cand *compiler.Candidate, dest, vault int) *offloadJob {
	job := sys.jobs.get()
	if job.deliver == nil {
		job.deliver = job.delivered
		job.dirty = make(map[uint64]struct{})
	}
	*job = offloadJob{
		cand: cand, srcSM: sm, srcWarp: sw, dest: dest, vault: vault,
		dirty: job.dirty, deliver: job.deliver,
	}
	return job
}

// launchOffload packs and sends the offload request.
func (sys *System) launchOffload(sm *SM, sw *smWarp, cand *compiler.Candidate, dest, vault int, now int64) {
	sm.unready(sw, wsWaitOffload)
	job := sys.buildJob(sm, sw, cand, dest, vault)
	reqBytes := offloadHdrBytes + cand.NumLiveIn()*isa.WarpSize*regLaneBytes
	sys.stats.OffloadsSent++
	sys.stats.PCStats.At(cand.StartPC).Sent++
	if ob := sys.ob; ob != nil {
		ob.sent.Inc()
		ob.o.Emit(obs.Event{Cycle: now, Kind: obs.EvSend, SM: sm.id, Stack: dest,
			PC: cand.StartPC, Bytes: reqBytes})
	}
	lat := sys.cfg.OffloadPipeLat
	if sys.ptraits.SpawnLat > 0 {
		lat = sys.ptraits.SpawnLat
	}
	sys.wheel.afterEvent(lat, wheelEvent{kind: wevSendOffload, job: job})
}

// trySpawn starts queued offload jobs on free stack-SM warp slots.
func (sm *SM) trySpawn(now int64) {
	for len(sm.spawnQ) > 0 {
		if sm.freeSlots == 0 {
			if !sm.sys.ptraits.ZeroCost {
				return
			}
			// Zero-cost (ideal) mode: oversubscribe.
		}
		job := sm.spawnQ[0]
		n := copy(sm.spawnQ, sm.spawnQ[1:])
		sm.spawnQ = sm.spawnQ[:n]
		sm.spawn(job, now)
		if !sm.sys.ptraits.ZeroCost {
			return // one spawn per cycle
		}
	}
}

func (sm *SM) spawn(job *offloadJob, now int64) {
	if ob := sm.sys.ob; ob != nil {
		ob.spawnCounter.Inc()
		ob.o.Emit(obs.Event{Cycle: now, Kind: obs.EvSpawn, SM: sm.id, Stack: job.dest,
			PC: job.cand.StartPC})
	}
	if sm.sys.cfg.Coherence {
		// §4.4.2 step 2: invalidate the stack SM's private cache before
		// running the offloaded block.
		sm.l1.InvalidateAll()
	}
	cand := job.cand
	md, src := job.srcWarp.md, job.srcWarp.w
	w := sm.sys.warps.get()
	w.ResetRegion(md.Kernel, md.Info, src.WInfo, sm.sys.mem, src.ActiveMask(),
		cand.StartPC, cand.EndPC, cand.LiveIn, src.Regs)
	slot := sm.findFreeSlot()
	sw := &smWarp{sm: sm, slot: slot, w: w, md: md, job: job}
	sm.warps[slot] = sw
	// Ideal-mode oversubscription spawns past capacity without consuming a
	// slot; remember which warps took one so retirement releases exactly
	// what was taken and freeSlots can never exceed the configured slots.
	if sm.freeSlots > 0 {
		sm.freeSlots--
		sw.tookSlot = true
	}
	sm.setReady(sw)
}

// sendOffloadAck fires when a stack warp finishes its region and its
// write-through stores have drained: live-out registers and the dirty-line
// list travel back on the RX channel.
func (sys *System) sendOffloadAck(sw *smWarp, now int64) {
	sm := sw.sm
	job := sw.job
	sm.unready(sw, wsRetired)
	sm.warps[sw.slot] = nil
	if sw.tookSlot {
		sm.freeSlots++
	}

	cand := job.cand
	regs := job.srcWarp.w.Regs
	for r := range regs {
		if cand.LiveOut&(1<<r) != 0 {
			regs[r] = sw.w.Regs[r]
		}
	}
	sys.warps.put(sw.w)
	sw.w = nil
	// The ack carries the same offload header as the request: per §4.4.2 it
	// must identify the requesting warp and region (see types.go).
	ackBytes := offloadHdrBytes + cand.NumLiveOut()*isa.WarpSize*regLaneBytes
	if sys.cfg.Coherence {
		ackBytes += len(job.dirty) * dirtyAddrBytes
	}
	sys.stats.OffloadsAcked++
	if ob := sys.ob; ob != nil {
		ob.acks.Inc()
		ob.o.Emit(obs.Event{Cycle: now, Kind: obs.EvAck, SM: sm.id, Stack: job.dest,
			PC: cand.StartPC, Bytes: ackBytes})
	}
	if sys.ptraits.ZeroCost {
		sys.wheel.afterEvent(1, wheelEvent{kind: wevFinishOffload, job: job})
		return
	}
	job.acked = true
	sys.rxLinks[job.dest].Send(packetOf(ackBytes, job.deliver), now)
}

// finishOffload resumes the requesting warp: invalidate the dirty lines in
// the requester's L1 and the shared L2 (§4.4.2 step 3), and skip execution
// past the region.
func (sys *System) finishOffload(job *offloadJob, now int64) {
	sw := job.srcWarp
	sm := job.srcSM
	invalidateCost := int64(0)
	if sys.cfg.Coherence && !sys.ptraits.ZeroCost {
		for line := range job.dirty {
			sm.l1.Invalidate(line)
			sys.l2.invalidate(line)
		}
		sys.stats.CoherenceInvalidates += uint64(len(job.dirty))
		if sys.ob != nil {
			sys.ob.invalidates.Add(uint64(len(job.dirty)))
		}
		invalidateCost = int64(len(job.dirty)+3) / 4
	}
	if ob := sys.ob; ob != nil {
		ob.o.Emit(obs.Event{Cycle: now, Kind: obs.EvFinish, SM: sm.id, Stack: job.dest,
			PC: job.cand.StartPC, N: len(job.dirty)})
	}
	sys.pendingOffloads[job.dest]--
	if job.vault >= 0 {
		sys.pendingVault[job.dest][job.vault]--
	}
	sw.w.SkipTo(job.cand.EndPC)
	sw.regionActive = nil
	sw.notReadyUntil = now + 1 + invalidateCost
	sw.state = wsWaitDep
	sm.reconsider(sw, now)
	clear(job.dirty)
	sys.jobs.put(job)
}

// destStack finds the memory stack the candidate's first global-memory
// access (leader lane) would touch. Kept as the single-access view of
// dryRun for tests and diagnostics.
func (sys *System) destStack(sw *smWarp, cand *compiler.Candidate) int {
	lines, _ := sys.dryRun(sw, cand, 1)
	if len(lines) == 0 {
		return -1
	}
	return sys.stackOf(lines[0])
}

// dryRunSteps bounds the scalar dry run; a candidate whose first memory
// access lies beyond it is reported as bounded (gate reason destbound), not
// silently folded into "no destination".
const dryRunSteps = 512

// dryRun performs the side-effect-free scalar walk of §4.2 footnote 4 from
// the candidate entry on the leader lane, collecting up to maxAcc distinct
// global-memory line addresses (first access first). With maxAcc == 1 it
// stops at the first memory instruction — the paper's destination dry run;
// larger windows (CODA) keep walking, tracking which registers became
// unknowable (loaded from memory) and stopping at the first instruction
// whose outcome depends on one: a tainted address or branch predicate ends
// the trace rather than fabricating addresses.
//
// bounded reports that the step bound expired while still inside the
// region; it distinguishes a truncated trace from a genuinely access-free
// walk.
func (sys *System) dryRun(sw *smWarp, cand *compiler.Candidate, maxAcc int) (lines []uint64, bounded bool) {
	lane := sw.w.LeaderLane()
	if lane < 0 {
		return nil, false
	}
	if maxAcc < 1 {
		maxAcc = 1
	}
	k := sw.w.Kernel
	var regs [isa.MaxRegs]uint64
	var taint [isa.MaxRegs]bool
	for r := 0; r < k.NumRegs; r++ {
		regs[r] = sw.w.Regs[r][lane]
	}
	eval := func(o isa.Operand) uint64 {
		switch o.Kind {
		case isa.OpdReg:
			return regs[o.Reg]
		case isa.OpdImm:
			return uint64(o.Imm)
		case isa.OpdSpecial:
			return sw.w.SpecialValue(o.Sp, lane)
		}
		return 0
	}
	tainted := func(o isa.Operand) bool {
		return o.Kind == isa.OpdReg && taint[o.Reg]
	}
	record := func(addr uint64) bool {
		line := addr &^ uint64(sys.cfg.LineBytes-1)
		for _, l := range lines {
			if l == line {
				return len(lines) < maxAcc
			}
		}
		lines = append(lines, line)
		return len(lines) < maxAcc
	}
	pc := cand.StartPC
	for steps := 0; pc < cand.EndPC && pc >= cand.StartPC; steps++ {
		if steps >= dryRunSteps {
			return lines, true
		}
		in := k.Instrs[pc]
		switch in.Op {
		case isa.OpLdGlobal, isa.OpStGlobal:
			if tainted(in.A) {
				return lines, false // unknowable address: stop the trace
			}
			if !record(eval(in.A) + uint64(in.Imm)) {
				return lines, false
			}
			if in.Op == isa.OpLdGlobal && in.HasDst {
				taint[in.Dst] = true // loaded value is unknowable
			}
			pc++
		case isa.OpBra:
			taken := in.A.Kind == isa.OpdNone
			if !taken {
				if tainted(in.A) {
					return lines, false // unknowable predicate: stop
				}
				p := eval(in.A) != 0
				if in.PredNeg {
					p = !p
				}
				taken = p
			}
			if taken {
				pc = in.Target
			} else {
				pc++
			}
		case isa.OpSetp, isa.OpFSetp:
			if tainted(in.A) || tainted(in.B) {
				taint[in.Dst] = true
			} else {
				regs[in.Dst] = exec.Compare(in.Op, in.Cmp, eval(in.A), eval(in.B))
				taint[in.Dst] = false
			}
			pc++
		case isa.OpExit, isa.OpBar, isa.OpLdShared, isa.OpStShared, isa.OpAtomAdd:
			return lines, false // cannot occur in a legal candidate; bail out
		default:
			if in.HasDst {
				if tainted(in.A) || tainted(in.B) || tainted(in.C) {
					taint[in.Dst] = true
				} else {
					regs[in.Dst] = exec.ALUOp(in.Op, eval(in.A), eval(in.B), eval(in.C))
					taint[in.Dst] = false
				}
			}
			pc++
		}
	}
	return lines, false
}
