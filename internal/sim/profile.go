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
// the Memory Map Analyzer fed every offloading-candidate instance (the
// co-location of every consecutive-bit mapping and the oracle best bit for
// Figs. 3/6 and ctrl-oracle runs), the baseline co-location (Fig. 6),
// per-candidate fixed-offset statistics (Fig. 5) and the candidate-touched
// allocation ranges.
//
// The pass executes the kernels with the exact functional semantics and
// observes every offloading-candidate instance, so its statistics are
// ground truth rather than learned estimates.
type Profile struct {
	// Map is the analyzer every instance went through; it answers every
	// mapping question (Map.BestBit is the oracle bit).
	Map *mapping.Analyzer
	// Touched names the ranges candidate instances touched, in allocation
	// order: the ranges an oracle run installs its bit on.
	Touched []string

	// Offsets maps candidate region start PCs (per kernel name) to their
	// fixed-offset trackers.
	Offsets map[string]map[int]*mapping.OffsetTracker
	// CandidateCount is the number of static candidates across kernels.
	CandidateCount int

	baseline float64 // summed baseline-mapping co-location of the instances
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

// RunProfile executes the launches functionally and feeds every candidate
// instance to a Memory Map Analyzer, which flags the ranges they touch
// (CandidateTouched) on alloc; Touched lists them.
func RunProfile(m *mem.Flat, alloc *mem.AllocTable, launches []exec.Launch) (*Profile, error) {
	p := &Profile{
		Map:     mapping.NewAnalyzer(alloc),
		Offsets: map[string]map[int]*mapping.OffsetTracker{},
	}
	g := exec.NewGlobal(m)
	mdCache := map[*isa.Kernel]*compiler.Metadata{}

	// The runner reuses one CTA's warps for the whole grid, so a warp's
	// index in its CTA names its collection state.
	var warps []profWarp
	finish := func(kernel string, c *profWarp) {
		cand := c.cand
		c.cand = nil
		if len(c.lines) == 0 {
			return
		}
		p.baseline += mapping.Colocation(mapping.Interleave, p.Map.ObserveInstance(c.lines))
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
			if res.Kind == exec.StepMem && c.addrs < profAddrCap {
				lines := g.Lines()
				c.addrs += res.ActiveLanes
				for _, line := range lines {
					if n := len(c.lines); n == 0 || c.lines[n-1] != line.Addr {
						c.lines = append(c.lines, line.Addr)
					}
				}
				// A memory step has an active lane, and the first line
				// holds the lowest: the leader.
				leader := bits.TrailingZeros32(lines[0].Lanes)
				c.seq = append(c.seq, mapping.InstanceAccess{PC: res.PC, Addr: g.Addrs[leader]})
			}
			if res.Done {
				finish(l.Kernel.Name, c)
			}
		}
		if err := exec.RunAnalyzed(g, l, md.Info, hook); err != nil {
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

// BaselineCoLocation averages the baseline-mapping co-location over all
// instances (Fig. 6's first bar; 0 with none).
func (p *Profile) BaselineCoLocation() float64 {
	if n := p.Map.Instances(); n > 0 {
		return p.baseline / float64(n)
	}
	return 0
}

// BestBitFromFraction is Fig. 6's learning-phase emulation: the bit the
// analyzer picks from the first frac of the instances (at least one), and
// that bit's co-location over all of them.
func (p *Profile) BestBitFromFraction(frac float64) (bit int, coloc float64) {
	bit = p.Map.BestBitOver(max(1, int(float64(p.Map.Instances())*frac)))
	return bit, p.Map.CoLocation(bit)
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
