package compiler

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/cfgx"
	"repro/internal/isa"
)

// Candidate is one offloading-candidate region with everything the paper's
// offloading metadata table holds (§4.2): PCs, live-in/live-out register
// sets, the 2-bit TX/RX savings tag, and the conditional-offload hint.
type Candidate struct {
	ID             int
	StartPC, EndPC int // region [StartPC, EndPC); control exits by reaching EndPC

	LiveIn, LiveOut uint64 // register bitmasks (REG_TX / REG_RX sets)

	// Static per-trip global memory instruction counts.
	NLD, NST int

	IsLoop bool
	Trip   TripInfo

	// ALUFrac is the static fraction of non-memory, non-control
	// instructions in the region — the signal the extension's ALU-aware
	// aggressiveness control uses (the paper's §6.4 future work).
	ALUFrac float64

	// BWTX/BWRX are the estimated bandwidth deltas (equations (3)/(4))
	// at the trip count used for the offload decision (static count, the
	// conditional threshold, or 1). Negative = saving.
	BWTX, BWRX float64

	// SavesTX/SavesRX form the 2-bit tag the dynamic aggressiveness
	// control consults (§3.3): whether offloading reduces traffic on
	// each channel.
	SavesTX, SavesRX bool
}

// NumLiveIn returns |REG_TX|.
func (c *Candidate) NumLiveIn() int { return bits.OnesCount64(c.LiveIn) }

// NumLiveOut returns |REG_RX|.
func (c *Candidate) NumLiveOut() int { return bits.OnesCount64(c.LiveOut) }

// Conditional reports whether the candidate carries a runtime condition.
func (c *Candidate) Conditional() bool {
	return c.IsLoop && !c.Trip.Known && c.Trip.Cond != nil && c.Trip.Cond.MinTrips > 1
}

// MetadataEntryBits is the paper's §6.6 estimate of one offloading metadata
// table entry: begin/end PCs, live-in/live-out bit vectors, the 2-bit
// channel tag, and the offload condition.
const MetadataEntryBits = 258

// Metadata is the compiler's per-kernel output: the offloading metadata
// table plus the analyses the simulator reuses.
type Metadata struct {
	Kernel     *isa.Kernel
	Info       *cfgx.Info
	Candidates []*Candidate

	// atPC[pc] is the candidate starting at pc: one entry per instruction,
	// because the simulator asks on every issue outside a region.
	atPC []*Candidate
}

// AtPC returns the candidate starting at pc, or nil.
func (m *Metadata) AtPC(pc int) *Candidate {
	if uint(pc) < uint(len(m.atPC)) {
		return m.atPC[pc]
	}
	return nil
}

// SelectOptions parameterizes candidate selection so offload policies can
// reuse the legality machinery (§3.1.4) while swapping the enumeration
// granularity and the cost model (each offload.Policy row carries one).
type SelectOptions struct {
	// Cost is the bandwidth cost model handed to Accept.
	Cost CostParams
	// SkipLoops disables pass 1 (loop candidates) entirely; only
	// straight-line block regions are enumerated.
	SkipLoops bool
	// MaxBlockMems, when > 0, splits each straight-line block at global
	// memory instruction boundaries so every region contains at most this
	// many loads+stores — the near-bank fine-grained offload granularity.
	MaxBlockMems int
	// Accept applies the cost model to a legal region: it must fill
	// c.BWTX/BWRX and c.SavesTX/SavesRX (and c.Trip.Cond.MinTrips for
	// conditional loops) and report whether the candidate enters the
	// metadata table. Nil means AcceptTOMCost.
	Accept func(c *Candidate, p CostParams) bool
}

// Analyze runs TOM's offload-candidate selection on k with cost parameters p.
func Analyze(k *isa.Kernel, p CostParams) (*Metadata, error) {
	return AnalyzeWith(k, SelectOptions{Cost: p})
}

// AnalyzeWith runs offload-candidate selection under explicit options.
// AnalyzeWith(k, SelectOptions{Cost: p}) is exactly Analyze(k, p).
func AnalyzeWith(k *isa.Kernel, opt SelectOptions) (*Metadata, error) {
	info, err := cfgx.Analyze(k)
	if err != nil {
		return nil, err
	}
	accept := opt.Accept
	if accept == nil {
		accept = AcceptTOMCost
	}
	md := &Metadata{Kernel: k, Info: info, atPC: make([]*Candidate, len(k.Instrs))}

	taken := make([]bool, len(k.Instrs))
	overlap := func(s, e int) bool {
		for pc := s; pc < e; pc++ {
			if taken[pc] {
				return true
			}
		}
		return false
	}
	claim := func(s, e int) {
		for pc := s; pc < e; pc++ {
			taken[pc] = true
		}
	}
	try := func(start, end int, isLoop bool, trip TripInfo) {
		if end <= start || overlap(start, end) {
			return
		}
		c, ok := buildRegion(md, start, end, isLoop, trip)
		if !ok || !accept(c, opt.Cost) {
			return
		}
		claim(c.StartPC, c.EndPC)
		md.addCandidate(c)
	}

	// Pass 1: loop candidates. Outermost-first (larger regions first);
	// overlapping smaller loops are skipped.
	if !opt.SkipLoops {
		loops := info.Graph.Loops()
		sort.Slice(loops, func(i, j int) bool {
			return loops[i].EndPC-loops[i].StartPC > loops[j].EndPC-loops[j].StartPC
		})
		for _, l := range loops {
			if !l.Contiguous {
				continue
			}
			try(l.StartPC, l.EndPC, true, analyzeTrips(info, l))
		}
	}

	// Pass 2: straight-line block candidates outside chosen loops. The
	// region is the block body up to (not including) a trailing branch /
	// exit / barrier, so control leaves only by falling into EndPC.
	for _, b := range info.Graph.Blocks {
		end := b.End
		for end > b.Start {
			op := k.Instrs[end-1].Op
			if op == isa.OpBra || op == isa.OpExit || op == isa.OpBar {
				end--
				continue
			}
			break
		}
		if opt.MaxBlockMems > 0 {
			// Fine-grained enumeration: cut the block after every
			// MaxBlockMems-th global memory instruction so each segment is
			// centred on at most that many loads/stores. Segments with no
			// memory access are rejected by buildRegion's nLD+nST check.
			segStart, mems := b.Start, 0
			for pc := b.Start; pc < end; pc++ {
				op := k.Instrs[pc].Op
				if op.IsLoad() || op.IsStore() {
					mems++
					if mems >= opt.MaxBlockMems {
						try(segStart, pc+1, false, TripInfo{})
						segStart, mems = pc+1, 0
					}
				}
			}
			try(segStart, end, false, TripInfo{})
			continue
		}
		try(b.Start, end, false, TripInfo{})
	}

	sort.Slice(md.Candidates, func(i, j int) bool {
		return md.Candidates[i].StartPC < md.Candidates[j].StartPC
	})
	for i, c := range md.Candidates {
		c.ID = i
	}
	return md, nil
}

func (m *Metadata) addCandidate(c *Candidate) {
	m.Candidates = append(m.Candidates, c)
	m.atPC[c.StartPC] = c
}

// buildRegion checks legality (§3.1.4) and derives the cost-independent
// candidate attributes; ok is false when the region is illegal or touches
// no global memory. Cost fields (BWTX/BWRX, the 2-bit tag, conditional
// MinTrips) are left for the acceptance function.
func buildRegion(md *Metadata, start, end int, isLoop bool, trip TripInfo) (*Candidate, bool) {
	k := md.Kernel
	nLD, nST := 0, 0
	for pc := start; pc < end; pc++ {
		in := k.Instrs[pc]
		switch {
		// §3.1.4 limitation 1: no shared-memory accesses.
		case in.Op.IsShared():
			return nil, false
		// §3.1.4 limitation 3: no barriers, synchronization or atomics.
		case in.Op == isa.OpBar || in.Op == isa.OpAtomAdd:
			return nil, false
		// A thread exit inside the region would strand the warp on the
		// memory-stack SM.
		case in.Op == isa.OpExit:
			return nil, false
		// §3.1.4 limitation 2: control flow must stay confined so the
		// warp reconverges by EndPC. Targets may be anywhere in
		// [start, end] — a branch to end exits the region cleanly.
		case in.Op == isa.OpBra:
			if in.Target < start || in.Target > end {
				return nil, false
			}
		}
		if in.Op.IsLoad() {
			nLD++
		}
		if in.Op.IsStore() {
			nST++
		}
	}
	if nLD+nST == 0 {
		return nil, false
	}
	liveIn, liveOut, err := md.Info.RegionLiveInOut(start, end)
	if err != nil {
		return nil, false
	}
	alu := 0
	for pc := start; pc < end; pc++ {
		op := k.Instrs[pc].Op
		if !op.IsMemory() && op != isa.OpBra && op != isa.OpNop {
			alu++
		}
	}
	return &Candidate{
		StartPC: start, EndPC: end,
		LiveIn: liveIn, LiveOut: liveOut,
		NLD: nLD, NST: nST,
		IsLoop: isLoop, Trip: trip,
		ALUFrac: float64(alu) / float64(end-start),
	}, true
}

// AcceptTOMCost is TOM's offload decision (equations (3)/(4), §3.1): reject
// a region unless offloading it saves aggregate off-chip bandwidth at the
// decision trip count — the static count for counted loops, the break-even
// threshold for conditional loops (recorded as the runtime hint), and a
// single body execution otherwise.
func AcceptTOMCost(c *Candidate, p CostParams) bool {
	regTX, regRX := c.NumLiveIn(), c.NumLiveOut()
	decide := func(trips float64) (float64, float64, bool) {
		tx, rx := p.BWDelta(regTX, regRX, c.NLD, c.NST, trips)
		return tx, rx, tx+rx < 0
	}
	switch {
	case c.IsLoop && c.Trip.Known:
		tx, rx, ok := decide(float64(c.Trip.Static))
		if !ok {
			return false
		}
		c.BWTX, c.BWRX = tx, rx
	case c.IsLoop && c.Trip.Cond != nil:
		// Conditional candidate: find the break-even trip count; the
		// hardware offloads only when the runtime count reaches it.
		minT := p.MinBeneficialTrips(regTX, regRX, c.NLD, c.NST)
		if minT == 0 {
			return false
		}
		c.Trip.Cond.MinTrips = minT
		tx, rx, _ := decide(float64(minT))
		c.BWTX, c.BWRX = tx, rx
	default:
		// Unknown trip count (§3.1.3 case 3) or plain block: assume a
		// single execution of the body.
		tx, rx, ok := decide(1)
		if !ok {
			return false
		}
		c.BWTX, c.BWRX = tx, rx
	}
	c.SavesTX = c.BWTX < 0
	c.SavesRX = c.BWRX < 0
	return true
}

// AcceptAll admits every legal region, still evaluating the cost model so
// the 2-bit channel tag and conditional hints stay meaningful for gating.
// Policies that select on other grounds (co-location, granularity) use it
// as their base acceptance.
func AcceptAll(c *Candidate, p CostParams) bool {
	regTX, regRX := c.NumLiveIn(), c.NumLiveOut()
	trips := 1.0
	switch {
	case c.IsLoop && c.Trip.Known:
		trips = float64(c.Trip.Static)
	case c.IsLoop && c.Trip.Cond != nil:
		if minT := p.MinBeneficialTrips(regTX, regRX, c.NLD, c.NST); minT > 0 {
			c.Trip.Cond.MinTrips = minT
			trips = float64(minT)
		}
	}
	c.BWTX, c.BWRX = p.BWDelta(regTX, regRX, c.NLD, c.NST, trips)
	c.SavesTX = c.BWTX < 0
	c.SavesRX = c.BWRX < 0
	return true
}

// String summarizes the candidate.
func (c *Candidate) String() string {
	kind := "block"
	switch {
	case c.IsLoop && c.Trip.Known:
		kind = fmt.Sprintf("loop(static %d trips)", c.Trip.Static)
	case c.Conditional():
		kind = fmt.Sprintf("loop(conditional, >=%d trips)", c.Trip.Cond.MinTrips)
	case c.IsLoop:
		kind = "loop(unconditional)"
	}
	return fmt.Sprintf("cand#%d [%d,%d) %s ld=%d st=%d liveIn=%d liveOut=%d bwTX=%.2f bwRX=%.2f",
		c.ID, c.StartPC, c.EndPC, kind, c.NLD, c.NST, c.NumLiveIn(), c.NumLiveOut(), c.BWTX, c.BWRX)
}
