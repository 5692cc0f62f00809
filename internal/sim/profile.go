package sim

import (
	"math/bits"
	"sort"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mapping"
	"repro/internal/mem"
)

// Profile is the result of an instrumented functional pass over a workload:
// per-candidate fixed-offset statistics (Fig. 5), co-location under every
// consecutive-bit mapping and the baseline (Fig. 6), the oracle best bit
// (Fig. 3 / MapOracle runs), and the candidate-touched allocation ranges.
//
// The pass executes the kernels with the exact functional semantics and
// observes every offloading-candidate instance, so its statistics are
// ground truth rather than learned estimates.
type Profile struct {
	Instances int
	// coloc holds, row by row, the co-location fraction of each instance
	// under each bit option (len(Bits) entries per instance, parallel to
	// Bits), homes the corresponding home stacks (for the temporal
	// load-balance guard, see mapping.Analyzer), and baseline one entry per
	// instance.
	coloc    []float32
	homes    []uint8
	baseline []float32
	Bits     []int
	// Touched names the ranges candidate instances touched, in allocation
	// order: the ranges an oracle run installs its bit on.
	Touched []string

	// Offsets maps candidate region start PCs (per kernel name) to their
	// fixed-offset trackers.
	Offsets map[string]map[int]*mapping.OffsetTracker
	// CandidateCount is the number of static candidates across kernels.
	CandidateCount int
}

// profAddrCap bounds the lane addresses one instance records: steps are
// recorded while fewer than this many addresses have been.
const profAddrCap = 4096

// profWarp is one warp's open candidate instance: the candidate (nil when
// none is open), the lines its memory steps touched with repeats in a row
// dropped, how many lane addresses those steps carried, and the leader-lane
// access sequence the fixed-offset analysis reads. The buffers outlive the
// instance: the next one on the same warp slot reuses them.
type profWarp struct {
	cand  *compiler.Candidate
	lines []uint64
	addrs int
	seq   []mapping.InstanceAccess
}

// RunProfile executes the launches functionally, watching candidate
// instances. It flags the ranges they touch (CandidateTouched) on alloc,
// exactly like the Memory Map Analyzer would, and lists them in Touched.
func RunProfile(m *mem.Flat, alloc *mem.AllocTable, launches []exec.Launch) (*Profile, error) {
	p := &Profile{Offsets: map[string]map[int]*mapping.OffsetTracker{}}
	for b := mapping.MinBit; b <= mapping.MaxBit; b++ {
		p.Bits = append(p.Bits, b)
	}
	mdCache := map[*isa.Kernel]*compiler.Metadata{}

	stacks := 4
	var pols []mapping.Policy
	for _, b := range p.Bits {
		pols = append(pols, mapping.ConsecutiveBits{Stacks: stacks, Bit: b})
	}
	base := mapping.Baseline{Stacks: stacks}

	// The runner reuses one CTA's warps for the whole grid, so a warp's
	// index in its CTA names its collection state.
	var warps []profWarp
	var seen lineSet
	finish := func(kernel string, c *profWarp) {
		cand := c.cand
		c.cand = nil
		if len(c.lines) == 0 {
			return
		}
		// Dedup the lines preserving order.
		seen.reset(len(c.lines))
		lines := c.lines[:0]
		for _, l := range c.lines {
			if seen.add(l) {
				lines = append(lines, l)
			}
		}
		for _, pol := range pols {
			p.coloc = append(p.coloc, float32(mapping.Colocation(pol, lines)))
			p.homes = append(p.homes, uint8(pol.Stack(lines[0])))
		}
		p.baseline = append(p.baseline, float32(mapping.Colocation(base, lines)))
		p.Instances++
		var r *mem.Range
		for _, l := range lines {
			if r == nil || l-r.Base >= r.Size {
				r = alloc.Find(l)
			}
			if r != nil {
				r.CandidateTouched = true
			}
		}
		byPC := p.Offsets[kernel]
		if byPC == nil {
			byPC = map[int]*mapping.OffsetTracker{}
			p.Offsets[kernel] = byPC
		}
		tr := byPC[cand.StartPC]
		if tr == nil {
			tr = mapping.NewOffsetTracker()
			byPC[cand.StartPC] = tr
		}
		tr.ObserveInstance(c.seq)
		c.lines, c.addrs, c.seq = c.lines[:0], 0, c.seq[:0]
	}

	for _, l := range launches {
		md, ok := mdCache[l.Kernel]
		if !ok {
			var err error
			md, err = compiler.Analyze(l.Kernel, compiler.DefaultCostParams())
			if err != nil {
				return nil, err
			}
			mdCache[l.Kernel] = md
			p.CandidateCount += len(md.Candidates)
		}
		if n := l.WarpsPerCTA(); n > len(warps) {
			warps = append(warps, make([]profWarp, n-len(warps))...)
		}
		hook := func(w *exec.Warp, res exec.StepResult) {
			c := &warps[w.WInfo.WarpInCTA]
			if c.cand == nil || res.PC < c.cand.StartPC || res.PC >= c.cand.EndPC {
				if c.cand != nil {
					// Executed an instruction outside the region: the
					// instance is over (and may begin another candidate).
					finish(l.Kernel.Name, c)
				}
				if c.cand = md.AtPC(res.PC); c.cand == nil {
					return
				}
			}
			if res.Kind == exec.StepMem && c.addrs < profAddrCap && len(res.Accesses) > 0 {
				c.addrs += len(res.Accesses)
				for _, a := range res.Accesses {
					line := a.Addr >> mapping.LineShift << mapping.LineShift
					if n := len(c.lines); n == 0 || c.lines[n-1] != line {
						c.lines = append(c.lines, line)
					}
				}
				c.seq = append(c.seq, mapping.InstanceAccess{PC: res.PC, Addr: res.Accesses[0].Addr})
			}
			if res.Done {
				finish(l.Kernel.Name, c)
			}
		}
		if err := exec.RunAnalyzed(m, l, md.Info, hook); err != nil {
			return nil, err
		}
		for i := range warps {
			if warps[i].cand != nil {
				finish(l.Kernel.Name, &warps[i])
			}
		}
	}
	for _, r := range alloc.Ranges {
		if r.CandidateTouched {
			p.Touched = append(p.Touched, r.Name)
		}
	}
	return p, nil
}

// lineSet is a set of cache-line addresses that empties in O(1): a slot
// belongs to the set only when it carries the current generation, so reset
// bumps the generation instead of clearing the table. finish dedupes every
// instance through one lineSet.
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
	for i := (line >> mapping.LineShift) * 0x9e3779b97f4a7c15 >> 32; ; i++ {
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

// BaselineCoLocation averages the baseline-mapping co-location over all
// instances (Fig. 6's first bar).
func (p *Profile) BaselineCoLocation() float64 {
	return avg32(p.baseline, len(p.baseline))
}

// BestBitFromFraction picks the best bit using only the first frac of
// instances (the learning-phase emulation of Fig. 6) — scored exactly like
// the hardware analyzer: co-location discounted by the temporal
// load-balance guard — then returns that bit and its co-location measured
// over ALL instances.
func (p *Profile) BestBitFromFraction(frac float64) (bit int, coloc float64) {
	k := int(float64(p.Instances) * frac)
	if k < 1 {
		k = 1
	}
	if k > p.Instances {
		k = p.Instances
	}
	best, bestV := 0, -1.0
	for i := range p.Bits {
		v := 0.0
		adjSame := 0
		for n := 0; n < k; n++ {
			j := n*len(p.Bits) + i
			v += float64(p.coloc[j])
			if n > 0 && p.homes[j] == p.homes[j-len(p.Bits)] {
				adjSame++
			}
		}
		v *= mapping.BalanceFactor(adjSame, k, 4)
		if v > bestV {
			best, bestV = i, v
		}
	}
	return p.Bits[best], p.meanColoc(best)
}

// OracleBit returns the best bit over all instances and its co-location.
func (p *Profile) OracleBit() (bit int, coloc float64) {
	return p.BestBitFromFraction(1.0)
}

// CoLocationOfBit returns the average per-instance co-location of one
// specific consecutive-bit mapping over all observed instances.
func (p *Profile) CoLocationOfBit(bit int) float64 {
	for i, b := range p.Bits {
		if b == bit && p.Instances > 0 {
			return p.meanColoc(i)
		}
	}
	return 0
}

// meanColoc averages bit option i's co-location over all instances.
func (p *Profile) meanColoc(i int) float64 {
	v := 0.0
	for j := i; j < len(p.coloc); j += len(p.Bits) {
		v += float64(p.coloc[j])
	}
	return v / float64(p.Instances)
}

func avg32(xs []float32, n int) float64 {
	if n == 0 {
		return 0
	}
	v := 0.0
	for _, x := range xs[:n] {
		v += float64(x)
	}
	return v / float64(n)
}

// OffsetBuckets classifies every static candidate into the Fig. 5 buckets
// and returns the per-bucket candidate counts in bucket order.
func (p *Profile) OffsetBuckets() [mapping.NumOffsetBuckets]int {
	var out [mapping.NumOffsetBuckets]int
	var keys []string
	for k := range p.Offsets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, tr := range p.Offsets[k] {
			frac, ok := tr.FixedFraction()
			if !ok {
				continue
			}
			out[mapping.Bucket(frac)]++
		}
	}
	return out
}

// FixedOffsetCandidateFraction returns the share of candidates with any
// fixed-offset accesses (the paper's 85% statistic).
func (p *Profile) FixedOffsetCandidateFraction() float64 {
	b := p.OffsetBuckets()
	total, some := 0, 0
	for i, n := range b {
		total += n
		if mapping.OffsetBucket(i) != mapping.BucketNone {
			some += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(some) / float64(total)
}
