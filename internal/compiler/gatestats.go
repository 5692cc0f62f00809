package compiler

import "sort"

// GateStats accumulates the fate of every dynamic entry into one candidate
// region. Sent plus the Skipped* counters partition the post-learning
// entries; LearnEntries counts entries consumed by the tmap learning phase
// (the warp executes inline while the mapping analyzer observes).
type GateStats struct {
	Sent          uint64 `json:"sent,omitempty"`
	SkippedCond   uint64 `json:"skipped_cond,omitempty"`
	SkippedBusy   uint64 `json:"skipped_busy,omitempty"`
	SkippedFull   uint64 `json:"skipped_full,omitempty"`
	SkippedALU    uint64 `json:"skipped_alu,omitempty"`
	SkippedNoDest uint64 `json:"skipped_nodest,omitempty"`
	// SkippedDestBound/Split/VaultFull are the policy-layer reasons: a
	// destination dry run cut short by its step bound, a co-location veto
	// (coda), and a per-vault slot limit (mpu).
	SkippedDestBound uint64 `json:"skipped_destbound,omitempty"`
	SkippedSplit     uint64 `json:"skipped_split,omitempty"`
	SkippedVaultFull uint64 `json:"skipped_vaultfull,omitempty"`
	LearnEntries     uint64 `json:"learn_entries,omitempty"`

	// TripSum/TripObs accumulate the leader-lane trip counts the Offload
	// Controller evaluates at region entry (§4.2 step 1), observed for
	// every conditional-hinted candidate regardless of the gate outcome.
	TripSum uint64 `json:"trip_sum,omitempty"`
	TripObs uint64 `json:"trip_obs,omitempty"`
}

// CountSkip records one gated entry under the simulator's reason string.
func (g *GateStats) CountSkip(reason string) {
	switch reason {
	case "cond":
		g.SkippedCond++
	case "busy":
		g.SkippedBusy++
	case "full":
		g.SkippedFull++
	case "alu":
		g.SkippedALU++
	case "nodest":
		g.SkippedNoDest++
	case "destbound":
		g.SkippedDestBound++
	case "split":
		g.SkippedSplit++
	case "vaultfull":
		g.SkippedVaultFull++
	}
}

// Gated sums the entries suppressed by any gate.
func (g *GateStats) Gated() uint64 {
	return g.SkippedCond + g.SkippedBusy + g.SkippedFull + g.SkippedALU +
		g.SkippedNoDest + g.SkippedDestBound + g.SkippedSplit + g.SkippedVaultFull
}

// Decisions counts entries that reached the offload decision (sent or
// gated); learning-phase entries are excluded because no decision was made.
func (g *GateStats) Decisions() uint64 {
	return g.Sent + g.Gated()
}

// GateRate is the fraction of decisions that were gated (0 with none).
func (g *GateStats) GateRate() float64 {
	d := g.Decisions()
	if d == 0 {
		return 0
	}
	return float64(g.Gated()) / float64(d)
}

// MeanTrips is the average observed trip count (0 with no observations).
func (g *GateStats) MeanTrips() float64 {
	if g.TripObs == 0 {
		return 0
	}
	return float64(g.TripSum) / float64(g.TripObs)
}

// GateProfile maps a candidate's StartPC to its observed gate statistics.
// When a workload launches several kernels, candidates sharing a start PC
// share an entry; the table is a per-run aggregate, like the hardware's
// per-PC saturating counters would be.
type GateProfile map[int]*GateStats

// At returns (allocating if needed) the stats bucket for one start PC.
func (p GateProfile) At(pc int) *GateStats {
	g := p[pc]
	if g == nil {
		g = &GateStats{}
		p[pc] = g
	}
	return g
}

// PCs lists the profiled start PCs in ascending order.
func (p GateProfile) PCs() []int {
	pcs := make([]int, 0, len(p))
	for pc := range p {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	return pcs
}
