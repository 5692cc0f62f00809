package mapping

import (
	"repro/internal/mem"
)

// Analyzer is the Memory Map Analyzer (§4.1 ❸, §4.3): during the learning
// phase it watches each offloading-candidate instance's memory accesses and
// scores every candidate consecutive-bit mapping by compute/data
// co-location — the fraction of an instance's accesses that land on the
// instance's home stack (the stack of its first access, where the offload
// would execute). It also flags accessed allocation ranges in the driver's
// allocation table.
type Analyzer struct {
	Stacks int
	Table  *mem.AllocTable // may be nil (pure measurement)

	bits []int
	// homeFrac[i] accumulates the per-instance co-location fraction for
	// bit option i.
	homeFrac  []float64
	instances int

	// Temporal load-balance tracking: under a candidate mapping, if
	// consecutive candidate instances keep homing to the same stack, the
	// offload stream arrives as single-stack waves that serialize on one
	// logic-layer SM. prevHome/adjSame measure that.
	prevHome []int
	adjSame  []int

	lines []uint64 // scratch: deduplicated line addresses of one instance
}

// NewAnalyzer returns an analyzer sweeping all bit positions
// [MinBit, MaxBit] for a system with the given stack count.
func NewAnalyzer(stacks int, table *mem.AllocTable) *Analyzer {
	a := &Analyzer{Stacks: stacks, Table: table}
	for b := MinBit; b <= MaxBit; b++ {
		a.bits = append(a.bits, b)
	}
	a.homeFrac = make([]float64, len(a.bits))
	a.prevHome = make([]int, len(a.bits))
	a.adjSame = make([]int, len(a.bits))
	for i := range a.prevHome {
		a.prevHome[i] = -1
	}
	return a
}

// ObserveInstance records one offloading-candidate instance's accesses
// (byte addresses, any order; the first element must be the instance's
// first access, which determines the home stack).
func (a *Analyzer) ObserveInstance(addrs []uint64) {
	if len(addrs) == 0 {
		return
	}
	// Deduplicate to cache-line granularity, preserving first position.
	a.lines = a.lines[:0]
	for _, addr := range addrs {
		line := addr >> LineShift << LineShift
		dup := false
		for _, l := range a.lines {
			if l == line {
				dup = true
				break
			}
		}
		if !dup {
			a.lines = append(a.lines, line)
		}
	}
	for i, bit := range a.bits {
		p := ConsecutiveBits{Stacks: a.Stacks, Bit: bit}
		a.homeFrac[i] += Colocation(p, a.lines)
		home := p.Stack(a.lines[0])
		if home == a.prevHome[i] {
			a.adjSame[i]++
		}
		a.prevHome[i] = home
	}
	a.instances++

	if a.Table != nil {
		for _, l := range a.lines {
			if r := a.Table.Find(l); r != nil {
				r.CandidateTouched = true
			}
		}
	}
}

// Colocation returns the fraction of lines on the home (first line's)
// stack under p. The analyzer scores candidate mappings with it, and the
// co-location-aware offload policy (CODA) reuses it to drop candidates
// whose data splits across stacks. lines must be non-empty.
func Colocation(p Policy, lines []uint64) float64 {
	home := p.Stack(lines[0])
	n := 0
	for _, l := range lines {
		if p.Stack(l) == home {
			n++
		}
	}
	return float64(n) / float64(len(lines))
}

// BestBit returns the bit position with the highest score: average
// co-location (§4.3 step 4: the mapping that leads to the most accesses to
// the stack the offloaded block executes on) discounted by a temporal
// load-balance guard. A mapping whose chunk size exceeds the GPU's active
// footprint makes consecutive instances home to one stack, serializing the
// offload stream on a single logic-layer SM; the guard steers the choice
// toward the smallest-granularity mapping with equivalent co-location.
func (a *Analyzer) BestBit() int {
	best, bestV := a.bits[0], -1.0
	for _, bit := range a.bits {
		if v := a.ScoreOf(bit); v > bestV {
			best, bestV = bit, v
		}
	}
	return best
}

// ScoreOf returns the selection score of a bit position: accumulated
// co-location discounted by the load-balance guard.
func (a *Analyzer) ScoreOf(bit int) float64 {
	for i, b := range a.bits {
		if b == bit {
			return a.homeFrac[i] * BalanceFactor(a.adjSame[i], a.instances, a.Stacks)
		}
	}
	return 0
}

// BalanceFactor maps the fraction of consecutive instances homing to the
// same stack to a [0,1] discount: uniform spreading (1/stacks) costs
// nothing, perfect waves (always the same stack) zero the score.
func BalanceFactor(adjSame, instances, stacks int) float64 {
	if instances <= 1 {
		return 1
	}
	same := float64(adjSame) / float64(instances-1)
	uniform := 1.0 / float64(stacks)
	if same <= uniform {
		return 1
	}
	return 1 - (same-uniform)/(1-uniform)
}

// CoLocation returns the average per-instance co-location probability for
// the given bit position.
func (a *Analyzer) CoLocation(bit int) float64 {
	if a.instances == 0 {
		return 0
	}
	for i, b := range a.bits {
		if b == bit {
			return a.homeFrac[i] / float64(a.instances)
		}
	}
	return 0
}

// StorageBitsPerSM is the paper's §6.6 hardware cost of the analyzer: 40
// bits per candidate instance (10 mappings × 4 bits) × 48 concurrent warps.
func StorageBitsPerSM(warpsPerSM int) int {
	return 4 * (MaxBit - MinBit + 1) * warpsPerSM
}
