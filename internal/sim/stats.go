package sim

import (
	"fmt"

	"repro/internal/compiler"
)

// Stats aggregates everything the paper's figures report.
type Stats struct {
	Cycles int64
	// ThreadInstrs counts per-lane instructions (warp-instruction ×
	// active lanes), the numerator of IPC.
	ThreadInstrs uint64
	// WarpInstrs counts warp-instructions issued anywhere.
	WarpInstrs uint64
	// StackThreadInstrs counts the subset executed on memory-stack SMs.
	StackThreadInstrs uint64

	// --- Off-chip traffic (bytes) ---
	GPUTXBytes    uint64 // GPU -> memory channels
	GPURXBytes    uint64 // memory -> GPU channels
	CrossBytes    uint64 // memory <-> memory channels
	PCIeBytes     uint64 // learning phase (CPU memory)
	InternalBytes uint64 // vault TSV traffic (not off-chip)

	// --- Offloading ---
	CandidateInstances  uint64 // candidate region entries seen on main SMs
	OffloadsSent        uint64
	OffloadsAcked       uint64 // offload acks queued by stack SMs
	InFlightOffloads    int    // offloads still pending at exit (0 at true quiescence)
	OffloadsSkippedBusy uint64 // channel-busy gate
	OffloadsSkippedFull uint64 // pending-per-stack gate
	OffloadsSkippedCond uint64 // conditional threshold not met
	OffloadsSkippedALU  uint64 // ALU-ratio gate (extension)
	// OffloadsSkippedNoDest counts entries whose destination-stack dry run
	// failed (no active lanes, or the scalar walk left the region before
	// the first memory access — §4.2 footnote 4); the region runs inline.
	OffloadsSkippedNoDest uint64
	// OffloadsSkippedDestBound counts dry runs whose step bound expired
	// while still inside the region — previously folded indistinguishably
	// into NoDest, now separate so long candidates are diagnosable.
	OffloadsSkippedDestBound uint64
	// OffloadsSkippedSplit counts instances the co-location-aware policy
	// (coda) kept on the GPU because their data splits across stacks.
	OffloadsSkippedSplit uint64
	// OffloadsSkippedVaultFull counts instances gated by the near-bank
	// policy's (mpu) per-vault slot limit.
	OffloadsSkippedVaultFull uint64
	// LearnEntries counts candidate entries consumed by the tmap learning
	// phase (executed inline while the mapping analyzer observes; no
	// offload decision is made for them).
	LearnEntries         uint64
	CoherenceInvalidates uint64 // dirty lines invalidated at the GPU
	StoreDrainStalls     uint64

	// PCStats attributes every offload decision (sent, each skip reason,
	// learning entries, observed trip counts) to the candidate's start PC
	// (tomsim prints it per run). Conservation invariant at quiescence:
	// CandidateInstances == OffloadsSent + OffloadsSkipped() + LearnEntries
	// whenever offloading is enabled.
	PCStats compiler.GateProfile

	// --- Caches & DRAM ---
	L1Hits, L1Misses           uint64
	L2Hits, L2Misses           uint64
	StackL1Hits, StackL1Misses uint64
	DRAMActivations            uint64
	DRAMRowHits                uint64
	DRAMReads, DRAMWrites      uint64

	// --- Learning phase (tmap) ---
	LearnCycles    int64
	LearnedBit     int
	CopiedBytes    uint64
	LearnInstances int
	// MappingSource says how the active consecutive-bit mapping came to be:
	// MappingLearned (a learning phase picked it this run), MappingStored
	// (pre-installed from the persistent registry before cycle 0),
	// MappingPreset (the oracle bit, applied for free), or "" (no bit
	// mapping — baseline interleave throughout).
	MappingSource string
	// MappedRanges names the allocation ranges carrying the bit mapping —
	// the data-structure identity a stored mapping re-installs later.
	MappedRanges []string
	// LearnPCIeSaved is the learning-phase PCIe byte volume a stored-mapping
	// install avoided (the fresh run's PCIeBytes); 0 unless MappingStored.
	LearnPCIeSaved uint64
}

// MappingSource values (Stats.MappingSource).
const (
	MappingLearned = "learned" // this run's learning phase picked the bit
	MappingStored  = "stored"  // pre-installed from the persistent registry
	MappingPreset  = "preset"  // oracle mapping, applied for free
)

// IPC returns thread-instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.ThreadInstrs) / float64(s.Cycles)
}

// OffloadsSkipped sums the gate counters over every skip reason.
func (s *Stats) OffloadsSkipped() uint64 {
	return s.OffloadsSkippedBusy + s.OffloadsSkippedFull + s.OffloadsSkippedCond +
		s.OffloadsSkippedALU + s.OffloadsSkippedNoDest + s.OffloadsSkippedDestBound +
		s.OffloadsSkippedSplit + s.OffloadsSkippedVaultFull
}

// OffChipBytes sums all off-chip memory traffic (the Fig. 9 metric:
// GPU↔memory plus memory↔memory channels).
func (s *Stats) OffChipBytes() uint64 {
	return s.GPUTXBytes + s.GPURXBytes + s.CrossBytes
}

// DrainError reports a drain-correctness violation at what should be
// quiescence: offloads still in flight at exit, or a sent/ack mismatch. A
// healthy run returns nil — the run loop only terminates once every pending
// offload has drained, so a non-nil result means the quiescence detector and
// the offload controller disagree about outstanding work.
func (s *Stats) DrainError() error {
	if s.InFlightOffloads != 0 {
		return fmt.Errorf("sim: %d offloads still in flight at exit (sent %d, acked %d)",
			s.InFlightOffloads, s.OffloadsSent, s.OffloadsAcked)
	}
	if s.OffloadsAcked != s.OffloadsSent {
		return fmt.Errorf("sim: offload drain mismatch at exit: %d sent, %d acked",
			s.OffloadsSent, s.OffloadsAcked)
	}
	return nil
}

// OffloadedInstrFraction returns the share of thread instructions executed
// on memory-stack SMs (the §6.1 46.4%/15.7% statistic).
func (s *Stats) OffloadedInstrFraction() float64 {
	if s.ThreadInstrs == 0 {
		return 0
	}
	return float64(s.StackThreadInstrs) / float64(s.ThreadInstrs)
}
