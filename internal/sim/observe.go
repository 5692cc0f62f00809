package sim

import (
	"strconv"

	"repro/internal/mapping"
	"repro/internal/obs"
)

// obsState is the simulator's binding to an attached obs.Observer. Every
// series handle is resolved once at construction so the per-cycle cost with
// an observer enabled is one comparison plus, at sampling boundaries, a few
// dozen series updates; with Config.Observer nil the hot path pays a single
// nil check.
//
// Invariant (tested): the per-interval traffic series and the lifecycle
// counters sum exactly to the corresponding sim.Stats totals — the series
// record deltas of the same cumulative link counters finalizeStats reads,
// and flush adds each counter from its Stats field when the run ends.
type obsState struct {
	o     *obs.Observer
	every int64
	next  int64 // next sampling cycle

	// Per-interval off-chip traffic (byte deltas between samples).
	tx, rx, cross, pcie                 *obs.Series
	lastTX, lastRX, lastCross, lastPCIe uint64

	// Per-stack occupancy, sampled once per interval (instantaneous).
	pending []*obs.Series // pending-offload occupancy per stack
	txUtil  []*obs.Series // TX link sliding-window utilization
	rxUtil  []*obs.Series
	dramQ   []*obs.Series // vault queue + in-flight occupancy per stack
	l2mshrQ *obs.Series   // outstanding L2 misses
	l2bankQ *obs.Series   // transactions waiting in L2 bank queues
	learnQ  *obs.Series   // learning-phase instances observed so far
}

// newObsState resolves every handle against the observer's registry.
func newObsState(cfg *Config) *obsState {
	o := cfg.Observer
	every := o.Interval()
	reg := o.Registry
	ob := &obsState{
		o:     o,
		every: every,
		next:  every,

		tx:    reg.Series("traffic.gpu_tx_bytes", every),
		rx:    reg.Series("traffic.gpu_rx_bytes", every),
		cross: reg.Series("traffic.cross_bytes", every),
		pcie:  reg.Series("traffic.pcie_bytes", every),

		l2mshrQ: reg.Series("l2.mshr_occupancy", every),
		l2bankQ: reg.Series("l2.bank_queue_occupancy", every),
		learnQ:  reg.Series("learn.instances_seen", every),
	}
	for s := range mapping.Stacks {
		id := strconv.Itoa(s)
		ob.pending = append(ob.pending, reg.Series("stack."+id+".pending_offloads", every))
		ob.txUtil = append(ob.txUtil, reg.Series("link.tx"+id+".util", every))
		ob.rxUtil = append(ob.rxUtil, reg.Series("link.rx"+id+".util", every))
		ob.dramQ = append(ob.dramQ, reg.Series("dram.stack"+id+".occupancy", every))
	}
	return ob
}

// addTraffic records the byte deltas since the previous sample into the
// bucket containing cycle `at`.
func (ob *obsState) addTraffic(sys *System, at int64) {
	tx, rx, cross, pcie := sys.linkBytes()
	ob.tx.Add(at, float64(tx-ob.lastTX))
	ob.rx.Add(at, float64(rx-ob.lastRX))
	ob.cross.Add(at, float64(cross-ob.lastCross))
	ob.pcie.Add(at, float64(pcie-ob.lastPCIe))
	ob.lastTX, ob.lastRX, ob.lastCross, ob.lastPCIe = tx, rx, cross, pcie
}

// sample runs at each interval boundary: attribute traffic deltas and
// occupancy readings to the interval that just ended.
func (ob *obsState) sample(sys *System, now int64) {
	ob.next = now + ob.every
	at := now - 1 // the closing cycle of the finished interval
	if at < 0 {
		at = 0
	}
	ob.addTraffic(sys, at)
	for s := range mapping.Stacks {
		ob.pending[s].Add(at, float64(sys.pendingOffloads[s]))
		ob.txUtil[s].Add(at, sys.txLinks[s].Utilization(now))
		ob.rxUtil[s].Add(at, sys.rxLinks[s].Utilization(now))
		ob.dramQ[s].Add(at, float64(sys.stacks[s].occupancy()))
	}
	ob.l2mshrQ.Add(at, float64(len(sys.l2mshr)))
	ob.l2bankQ.Add(at, float64(sys.l2.queuedTxns()))
	ob.learnQ.Add(at, float64(sys.learnSeen))
}

// flush closes out the final partial interval so every traffic series sums
// exactly to its sim.Stats total, and adds the lifecycle counters from
// their Stats fields. Called once from finalizeStats.
func (ob *obsState) flush(sys *System) {
	at := sys.now - 1
	if at < 0 {
		at = 0
	}
	ob.addTraffic(sys, at)
	st := &sys.stats
	for _, c := range [...]struct {
		name string
		v    uint64
	}{
		{"offload.candidates", st.CandidateInstances},
		{"offload.sent", st.OffloadsSent},
		{"offload.acks", st.OffloadsAcked},
		// Every acked offload was spawned once; a run that returns without
		// error acks every spawn.
		{"offload.spawns", st.OffloadsAcked},
		{"offload.skipped_busy", st.OffloadsSkippedBusy},
		{"offload.skipped_full", st.OffloadsSkippedFull},
		{"offload.skipped_cond", st.OffloadsSkippedCond},
		{"offload.skipped_alu", st.OffloadsSkippedALU},
		{"offload.skipped_nodest", st.OffloadsSkippedNoDest},
		{"offload.skipped_destbound", st.OffloadsSkippedDestBound},
		{"offload.skipped_split", st.OffloadsSkippedSplit},
		{"offload.skipped_vaultfull", st.OffloadsSkippedVaultFull},
		{"offload.drain_stalls", st.StoreDrainStalls},
		{"coherence.invalidates", st.CoherenceInvalidates},
	} {
		ob.o.Registry.Counter(c.name).Add(c.v)
	}
}

// occupancy counts a stack's DRAM work: queued requests plus issued bursts
// whose completion is still pending, across all vaults.
func (s *stackNode) occupancy() int {
	n := 0
	for _, v := range s.vaults {
		snap := v.Snapshot()
		n += snap.Queued + snap.InFlight
	}
	return n
}
