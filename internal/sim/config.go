// Package sim assembles the full NDP GPU system of the paper and runs
// launches cycle by cycle: main-GPU SMs with L1s behind a banked shared L2,
// four 3D memory stacks (16 FR-FCFS vaults each) with one logic-layer SM
// per stack, unidirectional GPU↔stack and cross-stack links, the offload
// controller with dynamic aggressiveness control, and the learning-phase
// machinery of programmer-transparent data mapping.
//
// The model is "functional-first": instruction semantics come from
// internal/exec and are always exact; sim only decides when register values
// become visible to the pipeline and how many bytes cross each channel.
// A timing run therefore must end with the same memory image as the pure
// functional interpreter — an invariant the integration tests enforce.
package sim

import "repro/internal/obs"

// MappingMode selects the memory-stack address mapping.
type MappingMode int

// Mapping policies.
const (
	// MapBaseline: the bandwidth-maximizing XOR interleave (bmap).
	MapBaseline MappingMode = iota
	// MapTransparent: programmer-transparent data mapping (tmap): learn
	// the best consecutive-bit mapping from early candidate instances
	// and apply it to candidate-touched ranges only.
	MapTransparent
)

// Config holds every model parameter. DefaultConfig mirrors Table 1.
type Config struct {
	// Observer, when non-nil, receives offload-lifecycle events and
	// per-interval occupancy/traffic samples (see internal/obs and
	// docs/OBSERVABILITY.md). Nil — the default — keeps the hot path free
	// of instrumentation beyond a single pointer check.
	Observer *obs.Observer

	// --- GPU organization ---
	MainSMs      int // SMs in the main GPU
	WarpsPerSM   int
	MaxCTAsPerSM int
	IssueWidth   int // warp-instructions issued per main SM per cycle
	// StackIssueWidth is the logic-layer SM's issue width. The paper's
	// NDP design point provisions the stack SM to exploit the stack's
	// full internal bandwidth (160 GB/s needs ~4 issue slots at typical
	// memory-instruction ratios).
	StackIssueWidth int

	// --- Memory stacks (mapping.Stacks of mapping.Vaults vaults each) ---
	StackSMs        int     // logic-layer SMs per stack
	StackWarpMult   int     // warp-capacity multiplier for stack SMs (§6.4)
	InternalBWRatio float64 // vault bandwidth scale (1.0 = Table 1 2× external; 0.5 = §6.5 1× study)

	// --- Caches ---
	L1Bytes, L1Ways          int
	L2Bytes, L2Ways, L2Banks int
	LineBytes                int

	// --- Latencies (1.4 GHz core cycles) ---
	L1Lat, L2Lat, SharedLat    int64
	ALULat, FPLat, DivLat      int64
	LinkLat, CrossLat, XbarLat int64
	OffloadPipeLat             int64

	// --- Bandwidths (bytes per core cycle) ---
	GPUStackBW   float64 // per direction per stack link (80 GB/s)
	CrossStackBW float64 // per direction per stack pair (40 GB/s)
	VaultBW      float64 // TSV budget per vault (10 GB/s)

	// --- Structural limits ---
	MSHRsPerSM  int
	LSUQueue    int
	L2MSHRs     int
	L2BankQueue int

	// --- Offloading ---
	BusyThreshold float64
	Coherence     bool // §4.4.2 protocol on (off = idealized coherence)
	// Policy names the offload scheme (a row of internal/offload's table)
	// driving candidate selection, gating, and destination choice: "tom"
	// (dynamic aggressiveness control, §3.3) by default, "noctrl" to
	// offload every candidate, "none" for the no-NDP baseline, "ideal" for
	// the Fig. 2 idealization (zero offload overhead and perfect code/data
	// co-location). Unknown names panic in New.
	Policy string

	// --- Data mapping ---
	Mapping   MappingMode
	LearnFrac float64 // fraction of candidate instances observed (§3.2.2)
	LearnMin  int     // lower bound on observed instances
	// LearnDeadline ends the learning phase after this many cycles even
	// if fewer instances were observed (a runtime watchdog: kernels whose
	// early phases expose few candidate instances — e.g. BFS's first
	// levels — must not stay on the slow CPU-memory path indefinitely).
	LearnDeadline int64
	PCIeBW        float64 // learning-phase CPU-memory bandwidth (bytes/cycle)
	PCIeLat       int64   // learning-phase extra latency (cycles)

	// --- Limits ---
	MaxCycles int64 // safety stop (0 = none)
}

// DefaultConfig returns the Table 1 system with TOM fully enabled
// (controlled offloading + transparent data mapping).
func DefaultConfig() Config {
	return Config{
		MainSMs:         64,
		WarpsPerSM:      48,
		MaxCTAsPerSM:    8,
		IssueWidth:      2,
		StackIssueWidth: 2,

		StackSMs:        1,
		StackWarpMult:   1,
		InternalBWRatio: 1.0,

		L1Bytes: 32 * 1024, L1Ways: 4,
		L2Bytes: 1024 * 1024, L2Ways: 16, L2Banks: 16,
		LineBytes: 128,

		L1Lat: 28, L2Lat: 90, SharedLat: 24,
		ALULat: 4, FPLat: 8, DivLat: 20,
		LinkLat: 20, CrossLat: 24, XbarLat: 6,
		OffloadPipeLat: 10,

		GPUStackBW:   57.14, // 80 GB/s at 1.4 GHz
		CrossStackBW: 28.57, // 40 GB/s
		VaultBW:      7.14,  // 10 GB/s x 16 vaults = 160 GB/s per stack

		MSHRsPerSM:  64,
		LSUQueue:    32,
		L2MSHRs:     512,
		L2BankQueue: 32,

		BusyThreshold: 0.95,
		Coherence:     true,
		Policy:        "tom",

		Mapping:       MapTransparent,
		LearnFrac:     0.001,
		LearnMin:      8,
		LearnDeadline: 8_000,
		PCIeBW:        28.57, // host link; keeps the scaled-down learning phase proportional
		PCIeLat:       1400,  // ~1 us measured PCI-E round trip [36]

		MaxCycles: 0,
	}
}

// BaselineConfig returns the no-NDP baseline: 68 main SMs (the paper keeps
// total SM count equal: 64+4 vs 68), offloading off, baseline mapping.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.MainSMs = 68
	c.Policy = "none"
	c.Mapping = MapBaseline
	return c
}

// StackWarps returns the warp capacity of one stack SM.
func (c Config) StackWarps() int { return c.WarpsPerSM * c.StackWarpMult }
