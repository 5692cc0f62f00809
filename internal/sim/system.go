package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/link"
	"repro/internal/mapping"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/offload"
)

// launchCtx tracks one kernel launch's CTA dispatch.
type launchCtx struct {
	l         exec.Launch
	md        *compiler.Metadata
	nextCTA   int
	doneCTAs  int
	totalCTAs int
}

// System is the whole NDP GPU: main SMs + shared L2, four memory stacks
// with logic-layer SMs, all links, the offload controller state, and the
// programmer-transparent data-mapping machinery.
type System struct {
	cfg   Config
	mem   *mem.Flat
	alloc *mem.AllocTable
	wheel *wheel
	stats Stats

	all    []*SM // every SM by id: main SMs, then each stack's
	sms    []*SM // main GPU SMs (all[:MainSMs])
	l2     *l2sys
	l2mshr map[uint64]*l2entry
	stacks []*stackNode

	txLinks, rxLinks []*link.Link   // GPU->stack / stack->GPU
	crossLinks       [][]*link.Link // [from][to]
	pcieTX, pcieRX   *link.Link
	links            []*link.Link // all of the above, in tick order

	// Wake sets (DESIGN.md "Wake sets"): what the event-driven loop visits
	// in an executed cycle and peeks at to find the next one. runnable holds
	// the SMs (by id) whose tick would do work now; row i of ringSMs (each
	// as wide as runnable) the SMs holding timer-ring events in slot i, and
	// bit i of ringOcc says that row is non-empty. Vaults and L2 banks keep
	// theirs in stackNode.busy and l2sys.busy.
	runnable wakeSet
	ringSMs  wakeSet
	ringOcc  uint64

	pendingOffloads []int
	// pendingVault sub-divides pendingOffloads per destination vault for
	// vault-granular policies (MPU); stack-granular jobs never touch it.
	pendingVault [][]int

	// policy is the resolved offload policy (Config.Policy); ptraits
	// caches its Traits for the hot path.
	policy  offload.Policy
	ptraits offload.Traits

	// lat is the pipeline occupancy the SMs charge per latency class.
	lat [isa.NumLat]int64

	// Data mapping state.
	offloadBit int // -1 until a learned/forced bit is active
	analyzer   *mapping.Analyzer
	learning   bool
	learnSeen  int
	learnGoal  int

	now           int64
	executed      int64 // cycles actually stepped (== now in per-cycle mode)
	inflight      int
	frozenUntil   int64
	learnDeadline int64

	// perCycle forces the naive tick-every-cycle loop (diagnostics and the
	// event-driven/per-cycle equivalence tests).
	perCycle bool
	// afterCycle, when non-nil, runs at the end of every executed cycle in
	// either loop mode, with that cycle's number (tests: invariants over the
	// state, which only executed cycles change).
	afterCycle func(cycle int64)

	mdCache map[*isa.Kernel]*compiler.Metadata

	// ob is non-nil iff cfg.Observer is set (see observe.go).
	ob *obsState

	// Free lists of the per-request objects (pool.go): Run allocates in
	// steady state only when one of them is empty.
	warps     freeList[exec.Warp]
	txns      freeList[txn]
	flights   freeList[flight]
	mshrs     freeList[mshrEntry]
	l2entries freeList[l2entry]
	jobs      freeList[offloadJob]
	collects  freeList[collectState]
}

// New builds a system over the given memory and allocation table.
func New(cfg Config, m *mem.Flat, alloc *mem.AllocTable) *System {
	pol, err := offload.ByName(cfg.Policy)
	if err != nil {
		panic(err) // validated by internal/core and the CLIs before New
	}
	sys := &System{
		cfg: cfg, mem: m, alloc: alloc,
		l2mshr:     make(map[uint64]*l2entry),
		offloadBit: -1,
		mdCache:    make(map[*isa.Kernel]*compiler.Metadata),
		policy:     pol,
		ptraits:    pol.Traits(),
		lat: [isa.NumLat]int64{
			isa.LatALU: cfg.ALULat, isa.LatFP: cfg.FPLat, isa.LatDiv: cfg.DivLat,
			isa.LatShared: cfg.SharedLat, isa.LatMem: 1,
		},
	}
	sys.wheel = newWheel(sys)
	sys.stats.PCStats = compiler.GateProfile{}
	sys.l2 = newL2(sys)
	nSMs := cfg.MainSMs + cfg.Stacks*cfg.StackSMs
	sys.all = make([]*SM, 0, nSMs)
	sys.runnable = newWakeSet(nSMs)
	sys.ringSMs = make(wakeSet, ringSlots*len(sys.runnable))
	for i := 0; i < cfg.MainSMs; i++ {
		sm := newSM(sys, i, false, -1, cfg.WarpsPerSM)
		sm.port = sys.l2
		sys.all = append(sys.all, sm)
	}
	sys.sms = sys.all[:cfg.MainSMs:cfg.MainSMs]
	for s := 0; s < cfg.Stacks; s++ {
		st := newStack(sys, s)
		for i := 0; i < cfg.StackSMs; i++ {
			sm := newSM(sys, len(sys.all), true, s, cfg.StackWarps())
			sm.port = &stackPort{node: st}
			sys.all = append(sys.all, sm)
		}
		st.sms = sys.all[len(sys.all)-cfg.StackSMs : len(sys.all) : len(sys.all)]
		sys.stacks = append(sys.stacks, st)
		sys.txLinks = append(sys.txLinks,
			link.New(fmt.Sprintf("tx%d", s), cfg.GPUStackBW, cfg.LinkLat))
		sys.rxLinks = append(sys.rxLinks,
			link.New(fmt.Sprintf("rx%d", s), cfg.GPUStackBW, cfg.LinkLat))
	}
	sys.crossLinks = make([][]*link.Link, cfg.Stacks)
	for a := 0; a < cfg.Stacks; a++ {
		sys.crossLinks[a] = make([]*link.Link, cfg.Stacks)
		for b := 0; b < cfg.Stacks; b++ {
			if a != b {
				sys.crossLinks[a][b] =
					link.New(fmt.Sprintf("x%d-%d", a, b), cfg.CrossStackBW, cfg.CrossLat)
			}
		}
	}
	sys.pcieTX = link.New("pcieTX", cfg.PCIeBW, cfg.PCIeLat/2)
	sys.pcieRX = link.New("pcieRX", cfg.PCIeBW, cfg.PCIeLat/2)
	sys.links = make([]*link.Link, 0, cfg.Stacks*(cfg.Stacks+1)+2)
	for s := 0; s < cfg.Stacks; s++ {
		sys.links = append(sys.links, sys.txLinks[s], sys.rxLinks[s])
		for t := 0; t < cfg.Stacks; t++ {
			if s != t {
				sys.links = append(sys.links, sys.crossLinks[s][t])
			}
		}
	}
	sys.links = append(sys.links, sys.pcieTX, sys.pcieRX)
	sys.pendingOffloads = make([]int, cfg.Stacks)
	sys.pendingVault = make([][]int, cfg.Stacks)
	for s := range sys.pendingVault {
		sys.pendingVault[s] = make([]int, cfg.VaultsPerStack)
	}
	sys.analyzer = mapping.NewAnalyzer(cfg.Stacks, alloc)
	if cfg.Observer != nil {
		sys.ob = newObsState(&sys.cfg)
	}

	if cfg.Mapping == MapTransparent {
		sys.learning = cfg.Offload != OffloadOff
		sys.learnDeadline = cfg.LearnDeadline
	}
	return sys
}

// Stats returns the accumulated statistics (finalized after each Run).
func (sys *System) Stats() *Stats { return &sys.stats }

// ApplyMappingBit pre-activates a consecutive-bit mapping for all ranges
// flagged CandidateTouched in the allocation table (oracle runs skip the
// learning phase — the mapping is in force from cycle 0, for free).
func (sys *System) ApplyMappingBit(bit int) {
	sys.offloadBit = bit
	sys.stats.LearnedBit = bit
	sys.stats.MappingSource = MappingPreset
	for i := range sys.alloc.Ranges {
		if sys.alloc.Ranges[i].CandidateTouched {
			sys.alloc.Ranges[i].OffloadMapped = true
			sys.stats.MappedRanges = append(sys.stats.MappedRanges, sys.alloc.Ranges[i].Name)
		}
	}
}

// InstallMapping pre-installs a previously learned mapping before cycle 0:
// the named ranges get the consecutive-bit mapping and the one-time
// host→device copy is charged, but no learning phase runs — so a stored-
// mapping run generates zero learning-phase PCIe traffic (routeLoad/
// routeStore only take the PCIe path while learning). This is the "map
// once, stay resident" entry path, distinct from both bmap (no bit mapping)
// and the free preset mode (an oracle bit charges no copy at all).
// savedPCIe is the learning-phase PCIe byte volume the original fresh run
// paid, reported as Stats.LearnPCIeSaved. An unknown range name means the
// mapping describes different data structures and is rejected — installing
// it partially could place data wrongly, which a caller must treat as a
// store miss, never a degraded install.
func (sys *System) InstallMapping(bit int, ranges []string, savedPCIe uint64) error {
	if sys.cfg.Mapping != MapTransparent {
		return fmt.Errorf("sim: stored mappings install only on transparent-mapping systems (have mode %d)", sys.cfg.Mapping)
	}
	if bit < mapping.MinBit || bit > mapping.MaxBit {
		return fmt.Errorf("sim: stored mapping bit %d outside [%d, %d]", bit, mapping.MinBit, mapping.MaxBit)
	}
	var copied uint64
	resolved := make([]*mem.Range, 0, len(ranges))
	for _, name := range ranges {
		r, err := sys.alloc.Lookup(name)
		if err != nil {
			return fmt.Errorf("sim: stored mapping: %w", err)
		}
		resolved = append(resolved, r)
		copied += r.Size
	}
	for _, r := range resolved {
		r.CandidateTouched = true
		r.OffloadMapped = true
	}
	sys.offloadBit = bit
	sys.learning = false // the stored bit replaces the learning phase
	sys.stats.LearnedBit = bit
	sys.stats.CopiedBytes += copied
	sys.stats.MappingSource = MappingStored
	sys.stats.MappedRanges = append([]string(nil), ranges...)
	sys.stats.LearnPCIeSaved = savedPCIe
	if sys.ob != nil {
		sys.ob.pcieSaved.Add(savedPCIe)
		sys.ob.o.Emit(obs.Event{Cycle: sys.now, Kind: obs.EvMapInstall,
			N: len(ranges), Bit: obs.BitValue(bit)})
	}
	return nil
}

// stackOf maps a line address to its memory stack under the currently
// active policy (baseline XOR interleave, overridden per-range by the
// learned consecutive-bit mapping once tmap's copy has happened).
func (sys *System) stackOf(addr uint64) int {
	if sys.offloadBit >= 0 {
		if r := sys.alloc.Find(addr); r != nil && r.OffloadMapped {
			return int((addr >> uint(sys.offloadBit)) & uint64(sys.cfg.Stacks-1))
		}
	}
	line := addr >> mapping.LineShift
	return int((line ^ (line >> 6) ^ (line >> 11)) & uint64(sys.cfg.Stacks-1))
}

func (sys *System) forceColocate() bool { return sys.ptraits.ForceColocate }

// metadata compiles (and caches) the offload metadata for a kernel through
// the policy's candidate-selection hook.
func (sys *System) metadata(k *isa.Kernel) (*compiler.Metadata, error) {
	if md, ok := sys.mdCache[k]; ok {
		return md, nil
	}
	md, err := sys.policy.SelectCandidates(k, compiler.DefaultCostParams())
	if err != nil {
		return nil, err
	}
	sys.mdCache[k] = md
	return md, nil
}

// --- Learning phase (programmer-transparent data mapping, §4.3) ---

// learnWindow bounds how many warp memory instructions the analyzer
// observes per candidate instance: the hardware tracks 40 bits per
// instance (§6.6), so its observation window is inherently small. Bounding
// it also keeps the learning prefix short at reduced workload scale.
const learnWindow = 8

func (sys *System) recordCollection(sw *smWarp, res exec.StepResult) {
	c := sw.collect
	for _, a := range res.Accesses {
		c.addrs = append(c.addrs, a.Addr)
	}
	if len(res.Accesses) > 0 {
		c.memInstrs++
	}
	if c.memInstrs >= learnWindow {
		sys.finishCollection(sw)
	}
}

func (sys *System) finishCollection(sw *smWarp) {
	c := sw.collect
	sw.collect = nil
	defer sys.collects.put(c) // the analyzer copies what it keeps
	if len(c.addrs) == 0 {
		return
	}
	sys.analyzer.ObserveInstance(c.addrs)
	sys.learnSeen++
	if sys.learning && sys.learnGoal > 0 && sys.learnSeen >= sys.learnGoal {
		sys.endLearning()
	}
}

// endLearning closes the learning phase: pick the best mapping, flag the
// candidate-touched ranges, and perform the delayed host→device copy
// (§4.3 steps 4-5). The copy itself is not extra work versus the baseline
// flow (it merely happened later), so only the interrupt/drain pause is
// charged; all caches are invalidated because data physically moved.
func (sys *System) endLearning() {
	sys.learning = false
	sys.stats.LearnInstances = sys.learnSeen
	sys.stats.LearnCycles = sys.now
	if sys.ob != nil {
		defer func() {
			ev := obs.Event{Cycle: sys.now, Kind: obs.EvLearnEnd, N: sys.learnSeen}
			// Bit 0 is a legitimate learned bit; only a phase that picked
			// no bit at all leaves the field nil.
			if bit := sys.stats.LearnedBit; bit >= 0 {
				ev.Bit = obs.BitValue(bit)
			}
			sys.ob.o.Emit(ev)
		}()
	}
	if sys.learnSeen == 0 {
		// Nothing observed before the watchdog fired: keep the baseline
		// mapping for everything.
		sys.stats.LearnedBit = -1
		return
	}
	bit := sys.analyzer.BestBit()
	// The copy only moves ranges whose placement actually changes: a range
	// already carrying this exact bit mapping (a pre-installed one — e.g. a
	// stored mapping installed while learning was left running) stays put.
	var moved uint64
	for i := range sys.alloc.Ranges {
		r := &sys.alloc.Ranges[i]
		if !r.CandidateTouched {
			continue
		}
		if !(r.OffloadMapped && sys.offloadBit == bit) {
			moved += r.Size
		}
		r.OffloadMapped = true
		sys.stats.MappedRanges = append(sys.stats.MappedRanges, r.Name)
	}
	sys.offloadBit = bit
	sys.stats.LearnedBit = bit
	sys.stats.MappingSource = MappingLearned
	sys.stats.CopiedBytes += moved
	if moved == 0 {
		// The chosen mapping was already in force for every touched range:
		// no data moved, so there is nothing to invalidate and no
		// interrupt/drain pause to charge (satellite of ISSUE 9 — the old
		// code froze the GPU for 1000 cycles over a no-op copy).
		return
	}
	for _, sm := range sys.all {
		sm.l1.InvalidateAll()
	}
	sys.l2.invalidateAll()
	sys.frozenUntil = sys.now + 1000 // GPU runtime interrupt + pipeline drain
}

// learnCTACap bounds concurrently resident CTAs while the learning phase
// is active: the GPU runtime throttles dispatch so the (slow, CPU-memory-
// backed) learning prefix stays a small fraction of the run, mirroring the
// paper's 0.1%-of-instances budget at our reduced workload scales.
const learnCTACap = 48

// activeCTAs counts CTAs currently resident on main SMs.
func (sys *System) activeCTAs() int {
	n := 0
	for _, sm := range sys.sms {
		n += len(sm.ctas)
	}
	return n
}

// --- Run loop ---

// Run executes the launches in order and finalizes stats. The same System
// must not be reused across Run calls.
func (sys *System) Run(launches []exec.Launch) error {
	// Estimate the learning goal: LearnFrac of expected candidate
	// instances across the run (§3.2.2 observes ~0.1%).
	if sys.learning {
		est := 0
		for _, l := range launches {
			md, err := sys.metadata(l.Kernel)
			if err != nil {
				return err
			}
			est += l.Grid * l.WarpsPerCTA() * len(md.Candidates)
		}
		goal := int(float64(est) * sys.cfg.LearnFrac)
		if goal < sys.cfg.LearnMin {
			goal = sys.cfg.LearnMin
		}
		sys.learnGoal = goal
		if est == 0 {
			sys.learning = false // nothing to learn from
		}
	}
	for i, l := range launches {
		if err := sys.runLaunch(l); err != nil {
			// A truncated run (MaxCycles, or any launch failure) must still
			// close an open learning phase: without this, the stats said
			// LearnInstances=0/LearnCycles=0 while learn.instances_seen had
			// been sampling real observations, breaking the series'
			// conservation against the end-of-run totals.
			if sys.learning {
				sys.endLearning()
			}
			sys.finalizeStats()
			return fmt.Errorf("sim: launch %d (%s): %w", i, l.Kernel.Name, err)
		}
	}
	// A learning phase that never hit its goal ends with the workload.
	if sys.learning {
		sys.endLearning()
	}
	sys.finalizeStats()
	// Drain-correctness check: quiescence must mean every offload round
	// trip completed. A violation is a simulator bug (or a premature exit),
	// not a property of the workload — fail loudly instead of returning
	// silently-wrong statistics.
	return sys.stats.DrainError()
}

// SetPerCycleLoop selects the naive tick-every-cycle loop instead of the
// event-driven one. Both produce identical Stats (tested); the per-cycle
// loop is the equivalence baseline. It is exported only because the
// benchmark (bench/simseg.go) times that loop for sim.percycle_ratio.
func (sys *System) SetPerCycleLoop(v bool) { sys.perCycle = v }

func (sys *System) runLaunch(l exec.Launch) error {
	if err := l.Validate(); err != nil {
		return err
	}
	md, err := sys.metadata(l.Kernel)
	if err != nil {
		return err
	}
	lc := &launchCtx{l: l, md: md, totalCTAs: l.Grid}
	perCycle := sys.perCycle

	for {
		sys.stepCycle(lc, !perCycle)

		// Exact quiescence: state only changes on executed cycles, so
		// checking after every one of them ends the launch on the first
		// cycle past the last component activity (the old amortized check
		// overshot by up to 63 cycles). The check short-circuits on
		// doneCTAs during the bulk of the run.
		if lc.doneCTAs == lc.totalCTAs && sys.quiet() {
			return nil
		}
		// A run that quiesces exactly at the MaxCycles boundary succeeds;
		// the error fires at sys.now == MaxCycles+1, i.e. after cycle
		// MaxCycles executed without reaching quiescence.
		if sys.cfg.MaxCycles > 0 && sys.now > sys.cfg.MaxCycles {
			return fmt.Errorf("exceeded MaxCycles=%d", sys.cfg.MaxCycles)
		}
		if !perCycle {
			if next := sys.nextEventCycle(lc); next > sys.now {
				sys.now = next
			}
		}
	}
}

// stepCycle executes one simulated cycle at sys.now and advances sys.now.
// It is the shared body of both loop modes; the event-driven loop simply
// skips cycles this body would no-op through. With elide set (event mode),
// component ticks that are provable no-ops are skipped within the executed
// cycle too: only the members of the wake sets are visited, in the order
// the per-cycle reference loop ticks everything, and the Fig. 9 equivalence
// test pins that both produce identical Stats.
func (sys *System) stepCycle(lc *launchCtx, elide bool) {
	now := sys.now
	if ob := sys.ob; ob != nil && now >= ob.next {
		ob.sample(sys, now)
	}
	// Learning watchdog: close the phase at the deadline with whatever has
	// been observed; with nothing observed, give up on the learned mapping
	// entirely (tmap degrades to bmap).
	if sys.learning && sys.cfg.LearnDeadline > 0 && now >= sys.learnDeadline {
		sys.endLearning()
	}
	sys.wheel.tick(now)
	if now >= sys.frozenUntil {
		if lc.nextCTA < lc.totalCTAs && (!sys.learning || sys.activeCTAs() < learnCTACap) {
			for _, sm := range sys.sms {
				if lc.nextCTA >= lc.totalCTAs {
					break
				}
				sm.dispatchCTAs(lc)
				if sys.learning && sys.activeCTAs() >= learnCTACap {
					break
				}
			}
		}
		if elide {
			// SMs whose ring slot is due tick whether runnable or not. No
			// tick files into the current slot (ring delays are 1..63), so
			// joining the row to the runnable set once is the live view.
			if slot := int(now % ringSlots); sys.ringOcc&(1<<slot) != 0 {
				for w, m := range sys.ringRow(slot) {
					sys.runnable[w] |= m
				}
			}
			sys.tickRunnable(0, len(sys.sms), now)
		} else {
			for _, sm := range sys.sms {
				sm.tick(now)
			}
		}
		for _, st := range sys.stacks {
			st.tick(now, elide)
		}
	}
	sys.l2.tick(now, elide)
	// AdvanceTo, not a per-cycle Tick: in event mode `now` may be far past
	// the last executed cycle, and the links bulk-account the skipped span.
	// Idle links take the SkipTo fast path — it only moves the accounting
	// point, which Send needs to see (a send from a later deliver callback
	// this cycle must start its burst next cycle, exactly as if the idle
	// link had taken a full turn).
	for _, l := range sys.links {
		if l.Active() {
			l.AdvanceTo(now)
		} else {
			l.SkipTo(now)
		}
	}
	sys.executed++
	sys.now++
	if sys.afterCycle != nil {
		sys.afterCycle(now)
	}
}

// ringRow is row i of ringSMs: the SMs holding events in ring slot i.
func (sys *System) ringRow(i int) wakeSet {
	w := len(sys.runnable)
	return sys.ringSMs[i*w : (i+1)*w]
}

// tickRunnable ticks the runnable SMs with ids in [lo, hi) in ascending
// order and drops each that its tick left with nothing to do. The set is
// re-read after every tick: a tick can wake a later SM in the same cycle
// (ideal's zero-cost spawn onto a stack SM), as it would in the per-cycle
// loop.
func (sys *System) tickRunnable(lo, hi int, now int64) {
	for i := sys.runnable.next(lo, hi); i >= 0; i = sys.runnable.next(i+1, hi) {
		sm := sys.all[i]
		sm.tick(now)
		if !sm.runnableNow() {
			sys.runnable.clear(i)
		}
	}
}

// anyRunnable reports whether some SM's tick would do work now. A set bit
// is verified (and a stale one dropped), so the answer is exact.
func (sys *System) anyRunnable() bool {
	n := len(sys.all)
	for i := sys.runnable.next(0, n); i >= 0; i = sys.runnable.next(i+1, n) {
		if sys.all[i].runnableNow() {
			return true
		}
		sys.runnable.clear(i)
	}
	return false
}

// ExecutedCycles returns how many cycles the loop actually stepped. In
// per-cycle mode this equals Stats().Cycles; in event mode the difference
// is the number of skipped (provably inert) cycles. Deliberately not part
// of Stats: the two loop modes are pinned byte-identical on Stats, and this
// is precisely the number that differs between them.
func (sys *System) ExecutedCycles() int64 { return sys.executed }

// dispatchPending reports whether stepCycle's CTA dispatch would place a
// CTA right now. Mirrors the gates in stepCycle exactly: waiting CTAs, the
// learning-phase residency cap, and at least one SM with a free slot.
func (sys *System) dispatchPending(lc *launchCtx) bool {
	if lc.nextCTA >= lc.totalCTAs {
		return false
	}
	if sys.learning && sys.activeCTAs() >= learnCTACap {
		return false
	}
	wpc := lc.l.WarpsPerCTA()
	for _, sm := range sys.sms {
		if len(sm.ctas) < sys.cfg.MaxCTAsPerSM && sm.freeSlots >= wpc {
			return true
		}
	}
	return false
}

// nextEventCycle computes the earliest cycle >= sys.now at which any
// component can make progress. Skipped cycles are provable no-ops for every
// component, so the event-driven loop produces bit-identical Stats to the
// per-cycle loop (tested over the Fig. 9 matrix). It scans no component:
// busy-now is a wake-set test and the timed horizons are read only from the
// members of the sets. An over-inclusive answer would only cost a no-op
// cycle, never correctness — and the executed-cycle pin would catch it.
func (sys *System) nextEventCycle(lc *launchCtx) int64 {
	now := sys.now
	// Busy now, freeze or not: an L2 bank with queued transactions. (Links
	// are not in this set: serialization is accounted lazily, so a link
	// mid-packet has no per-cycle work — NextEvent below is its delivery.)
	if !sys.l2.busy.empty() {
		return now
	}
	// Busy now unless frozen: a runnable SM, or a CTA that dispatch would
	// place. Under the learning freeze their next chance is frozenUntil.
	// (A vault with queued requests is not "busy now": its NextEvent is the
	// exact first cycle issue arbitration can accept work.)
	gateBase := max(now, sys.frozenUntil)
	next := int64(math.MaxInt64)
	if sys.anyRunnable() || sys.dispatchPending(lc) {
		if gateBase == now {
			return now
		}
		next = gateBase
	}
	upd := func(t int64) { // t < 0: the source holds nothing
		if t >= 0 && t < next {
			next = t
		}
	}

	// The two O(1) sources first: when the ring or the wheel already has
	// an event for this very cycle there is nothing left to find out. A
	// ring slot fires at the first SM tick matching it mod ringSlots, gated
	// by the freeze, so the earliest over all SMs is the first occupied
	// slot at or after gateBase: rotate ringOcc so that bit d is slot
	// (gateBase+d) mod ringSlots and count trailing zeros.
	if sys.ringOcc != 0 {
		rot := bits.RotateLeft64(sys.ringOcc, -int(gateBase%ringSlots))
		upd(gateBase + int64(bits.TrailingZeros64(rot)))
	}
	upd(sys.wheel.nextDue())
	if next <= now {
		return now
	}
	// Link deliveries fire regardless of the freeze; vault horizons (issue
	// opportunities and completions) hold until gateBase.
	for _, l := range sys.links {
		upd(l.NextEvent())
	}
	for _, st := range sys.stacks {
		if st.due != math.MaxInt64 {
			upd(max(st.due, gateBase))
		}
	}

	// Caps: observer sampling boundaries, the learning watchdog, and the
	// MaxCycles limit must all be hit exactly, never jumped over.
	if ob := sys.ob; ob != nil {
		upd(ob.next)
	}
	if sys.learning && sys.cfg.LearnDeadline > 0 {
		upd(sys.learnDeadline)
	}
	if next == math.MaxInt64 {
		// No component holds future work yet the run is not quiescent
		// (a deadlocked workload): fall back to per-cycle stepping so the
		// MaxCycles guard fires exactly as in the per-cycle loop.
		return now
	}
	if sys.cfg.MaxCycles > 0 && next > sys.cfg.MaxCycles {
		next = sys.cfg.MaxCycles
	}
	return next
}

func (sys *System) quiet() bool {
	if sys.inflight != 0 || sys.wheel.pending() != 0 || len(sys.l2mshr) != 0 {
		return false
	}
	for _, p := range sys.pendingOffloads {
		if p != 0 {
			return false
		}
	}
	for _, sm := range sys.all {
		if sm.busy() {
			return false
		}
	}
	for _, st := range sys.stacks {
		if st.active() {
			return false
		}
	}
	if sys.l2.active() {
		return false
	}
	for _, l := range sys.links {
		if l.Active() {
			return false
		}
	}
	return true
}

func (sys *System) finalizeStats() {
	st := &sys.stats
	st.Cycles = sys.now
	if sys.ob != nil {
		sys.ob.flush(sys)
	}
	for s := 0; s < sys.cfg.Stacks; s++ {
		st.GPUTXBytes += sys.txLinks[s].BytesSent
		st.GPURXBytes += sys.rxLinks[s].BytesSent
		for t := 0; t < sys.cfg.Stacks; t++ {
			if s != t {
				st.CrossBytes += sys.crossLinks[s][t].BytesSent
			}
		}
	}
	st.PCIeBytes = sys.pcieTX.BytesSent + sys.pcieRX.BytesSent
	st.InFlightOffloads = 0
	for _, p := range sys.pendingOffloads {
		st.InFlightOffloads += p
	}
	for _, stk := range sys.stacks {
		for _, v := range stk.vaults {
			st.DRAMActivations += v.Activations
			st.DRAMRowHits += v.RowHits
			st.DRAMReads += v.Reads
			st.DRAMWrites += v.Writes
			st.InternalBytes += v.BytesMoved
		}
	}
}
