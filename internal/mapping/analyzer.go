package mapping

import (
	"math/bits"

	"repro/internal/mem"
)

// numBits is the number of consecutive-bit mappings the analyzer scores:
// bit option i is bit MinBit + i.
const numBits = MaxBit - MinBit + 1

// Analyzer is the Memory Map Analyzer (§4.1 ❸, §4.3), the one unit that
// turns offloading-candidate instances into a mapping choice: the learning
// phase feeds it the instances it watches, and the profile pass feeds it
// every instance of a workload (the oracle of Fig. 3 and Fig. 6). It scores
// every candidate consecutive-bit mapping by compute/data co-location — the
// fraction of an instance's accesses that land on the instance's home stack
// (the stack of its first access, where the offload would execute) — and
// flags the allocation ranges the instances touch in the driver's
// allocation table.
type Analyzer struct {
	Table *mem.AllocTable // may be nil (pure measurement)

	// One row per observed instance, numBits entries each: the instance's
	// co-location under bit option i, exact, and its home stack under it.
	coloc []float64
	homes []uint8

	seen  lineSet
	lines []uint64 // scratch: deduplicated line addresses of one instance
}

// NewAnalyzer returns an analyzer sweeping all bit positions
// [MinBit, MaxBit].
func NewAnalyzer(table *mem.AllocTable) *Analyzer {
	return &Analyzer{Table: table}
}

// ObserveInstance records one offloading-candidate instance's accesses
// (byte addresses, any order; the first element must be the instance's
// first access, which determines the home stack). It returns the
// instance's cache lines, deduplicated in first-access order; the slice is
// valid until the next call.
func (a *Analyzer) ObserveInstance(addrs []uint64) []uint64 {
	if len(addrs) == 0 {
		return nil
	}
	a.seen.reset(len(addrs))
	a.lines = a.lines[:0]
	for _, addr := range addrs {
		if line := addr >> LineShift << LineShift; a.seen.add(line) {
			a.lines = append(a.lines, line)
		}
	}
	for bit := MinBit; bit <= MaxBit; bit++ {
		a.coloc = append(a.coloc, Colocation(bit, a.lines))
		a.homes = append(a.homes, uint8(Decode(a.lines[0], bit).Stack))
	}

	if a.Table != nil {
		var r *mem.Range
		for _, l := range a.lines {
			if r == nil || l-r.Base >= r.Size {
				r = a.Table.Find(l)
			}
			if r != nil {
				r.CandidateTouched = true
			}
		}
	}
	return a.lines
}

// Instances returns the number of instances observed.
func (a *Analyzer) Instances() int { return len(a.homes) / numBits }

// Colocation returns the fraction of lines on the home (first line's)
// stack under the stack mapping bit (see Decode). The analyzer scores
// candidate mappings with it, and the profile scores the baseline
// interleave. lines must be non-empty.
func Colocation(bit int, lines []uint64) float64 {
	home := Decode(lines[0], bit).Stack
	n := 0
	for _, l := range lines {
		if Decode(l, bit).Stack == home {
			n++
		}
	}
	return float64(n) / float64(len(lines))
}

// BestBit returns the bit position with the highest score over every
// observed instance: see BestBitOver.
func (a *Analyzer) BestBit() int { return a.BestBitOver(a.Instances()) }

// BestBitOver returns the bit position with the highest score over the
// first k observed instances (at most all of them): their summed
// co-location (§4.3 step 4: the mapping that leads to the most accesses to
// the stack the offloaded block executes on) discounted by a temporal
// load-balance guard. A mapping whose chunk size exceeds the GPU's active
// footprint makes consecutive instances home to one stack, serializing the
// offload stream on a single logic-layer SM; the guard steers the choice
// toward the smallest-granularity mapping with equivalent co-location.
func (a *Analyzer) BestBitOver(k int) int {
	k = min(k, a.Instances())
	best, bestV := MinBit, -1.0
	for i := range numBits {
		if v := a.score(i, k); v > bestV {
			best, bestV = MinBit+i, v
		}
	}
	return best
}

// score is bit option i's selection score over the first k instances.
func (a *Analyzer) score(i, k int) float64 {
	v, adjSame := 0.0, 0
	for n := range k {
		j := n*numBits + i
		v += a.coloc[j]
		if n > 0 && a.homes[j] == a.homes[j-numBits] {
			adjSame++
		}
	}
	return v * balanceFactor(adjSame, k)
}

// balanceFactor maps the fraction of consecutive instances homing to the
// same stack to a [0,1] discount: uniform spreading (1/stacks) costs
// nothing, perfect waves (always the same stack) zero the score.
func balanceFactor(adjSame, instances int) float64 {
	if instances <= 1 {
		return 1
	}
	same := float64(adjSame) / float64(instances-1)
	uniform := 1.0 / Stacks
	if same <= uniform {
		return 1
	}
	return 1 - (same-uniform)/(1-uniform)
}

// CoLocation returns the average per-instance co-location probability of
// the given bit position over every observed instance (0 with none).
func (a *Analyzer) CoLocation(bit int) float64 {
	n := a.Instances()
	if n == 0 || bit < MinBit || bit > MaxBit {
		return 0
	}
	v := 0.0
	for j := bit - MinBit; j < len(a.coloc); j += numBits {
		v += a.coloc[j]
	}
	return v / float64(n)
}

// StorageBitsPerSM is the paper's §6.6 hardware cost of the analyzer: 40
// bits per candidate instance (10 mappings × 4 bits) × 48 concurrent warps.
func StorageBitsPerSM(warpsPerSM int) int {
	return 4 * numBits * warpsPerSM
}

// lineSet is a set of cache-line addresses that empties in O(1): a slot
// belongs to the set only when it carries the current generation, so reset
// bumps the generation instead of clearing the table. ObserveInstance
// dedupes every instance through one lineSet.
type lineSet struct {
	slots []lineSlot // open addressing, linear probing; len is a power of two
	gen   uint32
}

type lineSlot struct {
	line uint64
	gen  uint32
}

// reset empties the set and makes room for n additions at load ≤ 1/2.
func (s *lineSet) reset(n int) {
	if 2*n > len(s.slots) {
		s.slots = make([]lineSlot, max(64, 1<<bits.Len(uint(2*n-1))))
		s.gen = 0
	}
	if s.gen++; s.gen == 0 { // wrapped: stale stamps would read as current
		clear(s.slots)
		s.gen = 1
	}
}

// add inserts line and reports whether it was absent.
func (s *lineSet) add(line uint64) bool {
	mask := uint64(len(s.slots) - 1)
	for i := (line >> LineShift) * 0x9e3779b97f4a7c15 >> 32; ; i++ {
		sl := &s.slots[i&mask]
		if sl.gen != s.gen {
			*sl = lineSlot{line: line, gen: s.gen}
			return true
		}
		if sl.line == line {
			return false
		}
	}
}
