package sim

import (
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
// (Fig. 3 / MapOracle runs), and the candidate-touched allocation flags.
//
// The pass executes the kernels with the exact functional semantics and
// observes every offloading-candidate instance, so its statistics are
// ground truth rather than learned estimates.
type Profile struct {
	Instances int
	// perInstance[i] holds the co-location fraction of instance i under
	// each bit option (index parallel to Bits) and the baseline;
	// perHome[i] the corresponding home stacks (for the temporal
	// load-balance guard, see mapping.Analyzer).
	perInstance [][]float32
	perHome     [][]uint8
	baseline    []float32
	Bits        []int

	// Offsets maps candidate region start PCs (per kernel name) to their
	// fixed-offset trackers.
	Offsets map[string]map[int]*mapping.OffsetTracker
	// CandidateCount is the number of static candidates across kernels.
	CandidateCount int
}

type profCollect struct {
	cand  *compiler.Candidate
	addrs []uint64
	seq   []mapping.InstanceAccess
}

// RunProfile executes the launches functionally, watching candidate
// instances. It mutates alloc (CandidateTouched flags) exactly like the
// Memory Map Analyzer would.
func RunProfile(m *mem.Flat, alloc *mem.AllocTable, launches []exec.Launch) (*Profile, error) {
	p := &Profile{Offsets: map[string]map[int]*mapping.OffsetTracker{}}
	for b := mapping.MinBit; b <= mapping.MaxBit; b++ {
		p.Bits = append(p.Bits, b)
	}
	mdCache := map[*isa.Kernel]*compiler.Metadata{}
	active := map[*exec.Warp]*profCollect{}

	stacks := 4
	var pols []mapping.Policy
	for _, b := range p.Bits {
		pols = append(pols, mapping.ConsecutiveBits{Stacks: stacks, Bit: b})
	}
	base := mapping.Baseline{Stacks: stacks}

	finish := func(w *exec.Warp, pc *profCollect) {
		delete(active, w)
		if len(pc.addrs) == 0 {
			return
		}
		// Dedup to lines preserving order.
		lines := pc.addrs[:0]
		seen := map[uint64]bool{}
		for _, a := range pc.addrs {
			l := a >> mapping.LineShift << mapping.LineShift
			if !seen[l] {
				seen[l] = true
				lines = append(lines, l)
			}
		}
		row := make([]float32, len(pols))
		homes := make([]uint8, len(pols))
		for i, pol := range pols {
			row[i] = float32(colocationOf(pol, lines))
			homes[i] = uint8(pol.Stack(lines[0]))
		}
		p.perInstance = append(p.perInstance, row)
		p.perHome = append(p.perHome, homes)
		p.baseline = append(p.baseline, float32(colocationOf(base, lines)))
		p.Instances++
		for _, l := range lines {
			if r := alloc.Find(l); r != nil {
				r.CandidateTouched = true
			}
		}
		byPC := p.Offsets[w.Kernel.Name]
		if byPC == nil {
			byPC = map[int]*mapping.OffsetTracker{}
			p.Offsets[w.Kernel.Name] = byPC
		}
		tr := byPC[pc.cand.StartPC]
		if tr == nil {
			tr = mapping.NewOffsetTracker()
			byPC[pc.cand.StartPC] = tr
		}
		tr.ObserveInstance(pc.seq)
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
		hook := func(w *exec.Warp, res exec.StepResult) {
			pc := active[w]
			switch {
			case pc == nil:
				cand := md.AtPC(res.PC)
				if cand == nil {
					return
				}
				pc = &profCollect{cand: cand}
				active[w] = pc
			case res.PC < pc.cand.StartPC || res.PC >= pc.cand.EndPC:
				// Executed an instruction outside the region: the
				// instance is over (and may begin another candidate).
				finish(w, pc)
				cand := md.AtPC(res.PC)
				if cand == nil {
					return
				}
				pc = &profCollect{cand: cand}
				active[w] = pc
			}
			if res.Kind == exec.StepMem && len(pc.addrs) < 4096 {
				for _, a := range res.Accesses {
					pc.addrs = append(pc.addrs, a.Addr)
				}
				if len(res.Accesses) > 0 {
					pc.seq = append(pc.seq, mapping.InstanceAccess{PC: res.PC, Addr: res.Accesses[0].Addr})
				}
			}
			if res.Done {
				finish(w, pc)
			}
		}
		if err := exec.RunAnalyzed(m, l, md.Info, hook); err != nil {
			return nil, err
		}
		for w, pc := range active {
			finish(w, pc)
		}
	}
	return p, nil
}

func colocationOf(p mapping.Policy, lines []uint64) float64 {
	home := p.Stack(lines[0])
	n := 0
	for _, l := range lines {
		if p.Stack(l) == home {
			n++
		}
	}
	return float64(n) / float64(len(lines))
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
		for n, row := range p.perInstance[:k] {
			v += float64(row[i])
			if n > 0 && p.perHome[n][i] == p.perHome[n-1][i] {
				adjSame++
			}
		}
		v *= mapping.BalanceFactor(adjSame, k, 4)
		if v > bestV {
			best, bestV = i, v
		}
	}
	v := 0.0
	for _, row := range p.perInstance {
		v += float64(row[best])
	}
	return p.Bits[best], v / float64(p.Instances)
}

// OracleBit returns the best bit over all instances and its co-location.
func (p *Profile) OracleBit() (bit int, coloc float64) {
	return p.BestBitFromFraction(1.0)
}

// CoLocationOfBit returns the average per-instance co-location of one
// specific consecutive-bit mapping over all observed instances.
func (p *Profile) CoLocationOfBit(bit int) float64 {
	for i, b := range p.Bits {
		if b != bit {
			continue
		}
		v := 0.0
		for _, row := range p.perInstance {
			v += float64(row[i])
		}
		if p.Instances == 0 {
			return 0
		}
		return v / float64(p.Instances)
	}
	return 0
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
