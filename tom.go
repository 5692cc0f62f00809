// Package tom is the public API of the TOM reproduction — Hsieh et al.,
// "Transparent Offloading and Mapping (TOM): Enabling Programmer-Transparent
// Near-Data Processing in GPU Systems", ISCA 2016 — built on a from-scratch
// cycle-level GPU + 3D-stacked-memory simulator written in pure Go.
//
// The package wires together three layers:
//
//   - The compiler pass that statically selects offload-candidate
//     instruction blocks via the paper's bandwidth cost-benefit model
//     (internal/compiler over the PTX-like ISA of internal/isa).
//   - The full-system timing simulator: main GPU (SMs, L1s, banked L2),
//     four HMC-like memory stacks with logic-layer SMs and FR-FCFS vaults,
//     off-chip links, the dynamic offloading-aggressiveness controller, and
//     the learning-phase data-mapping machinery (internal/sim).
//   - The evaluation harness that reruns every figure and table of the
//     paper over the ten Table 2 workloads (internal/core,
//     internal/workloads).
//
// Quick start:
//
//	res, err := tom.Run("LIB", tom.TOM, 1.0)      // full TOM system
//	base, err := tom.Run("LIB", tom.Baseline, 1.0) // 68-SM baseline
//	fmt.Printf("speedup: %.2fx\n", res.IPC()/base.IPC())
package tom

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// System selects a named system configuration.
type System = core.ConfigName

// The main configurations. See core for the full sensitivity-study set.
const (
	// Baseline is the 68-SM GPU without near-data processing.
	Baseline = core.CfgBaseline
	// TOM is the paper's full proposal: controlled offloading plus
	// programmer-transparent data mapping (ctrl + tmap).
	TOM = core.CfgCtrlTmap
	// IdealNDP is the Fig. 2 idealization.
	IdealNDP = core.CfgIdeal
	// UncontrolledNDP always offloads every candidate (no-ctrl + tmap).
	UncontrolledNDP = core.CfgNoCtrlTmap
	// ControlledBmap is ctrl offloading with the baseline mapping.
	ControlledBmap = core.CfgCtrlBmap
)

// Result is one measured run.
type Result = core.RunResult

// Table is a reproduced figure/table.
type Table = core.Table

// Config re-exports the simulator configuration (DefaultConfig mirrors the
// paper's Table 1).
type Config = sim.Config

// DefaultConfig returns the Table 1 system with TOM enabled.
func DefaultConfig() Config { return sim.DefaultConfig() }

// BaselineConfig returns the 68-SM no-NDP baseline.
func BaselineConfig() Config { return sim.BaselineConfig() }

// Workloads returns the ten Table 2 workloads.
func Workloads() []workloads.Workload { return workloads.All() }

// WorkloadAbbrs lists the workload abbreviations in paper order.
func WorkloadAbbrs() []string { return core.Abbrs() }

// Run simulates one workload under a named system configuration at the
// given problem scale (1.0 = benchmark default). Every run is verified
// against the functional reference model before results are returned.
func Run(abbr string, system System, scale float64) (*Result, error) {
	return NewSession(SessionOptions{Scale: scale}).Run(abbr, system)
}

// SessionOptions configures a run session: problem scale, the optional
// persistent result cache (CacheDir/Fingerprint), and a progress callback.
type SessionOptions = core.Options

// Session is a run pipeline that memoizes runs and profiles in memory (use
// one, rather than repeated Run calls, to compare several systems on the
// same workloads), optionally persists results under SessionOptions.CacheDir
// keyed by run-spec digest and build fingerprint (see docs/RUNCACHE.md), and
// observes runs (Observe) each into its own metrics registry. Every run
// method sits on Session.Execute(spec, observer); Run, RunObserved and Warm
// are its conveniences for named configurations.
type Session = core.Session

// NewSession returns a Session. With a zero CacheDir only the in-memory
// layer is enabled.
func NewSession(opts SessionOptions) *Session { return core.NewSession(opts) }

// Experiment reproduces one of the paper's figures/tables by ID (see
// ExperimentIDs).
func Experiment(id string, scale float64) (*Table, error) {
	return NewSession(SessionOptions{Scale: scale}).Experiment(id)
}

// ExperimentIDs lists the reproducible experiments in paper order.
func ExperimentIDs() []string { return core.ExperimentIDs() }

// Speedup is a convenience: IPC ratio of system over Baseline for one
// workload.
func Speedup(abbr string, system System, scale float64) (float64, error) {
	r := NewSession(SessionOptions{Scale: scale})
	base, err := r.Run(abbr, Baseline)
	if err != nil {
		return 0, err
	}
	res, err := r.Run(abbr, system)
	if err != nil {
		return 0, err
	}
	if base.Stats.IPC() == 0 {
		return 0, fmt.Errorf("tom: baseline produced no work")
	}
	return res.Stats.IPC() / base.Stats.IPC(), nil
}
