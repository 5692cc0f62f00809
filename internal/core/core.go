// Package core orchestrates the paper's evaluation: it runs each Table 2
// workload under every system configuration the figures compare, verifies
// each timing run against the functional reference (final memory image
// equality plus the workload's own self-check), and aggregates the results
// into the tables that cmd/tomx, the benchmarks, and EXPERIMENTS.md report.
//
// Runs are requested through a Session, which puts two cache layers in
// front of the simulator (see docs/RUNCACHE.md):
//
//  1. an in-memory singleflight memo keyed by RunSpec digest — concurrent
//     requests for the same run are deduplicated, repeats are free; and
//  2. an optional persistent result cache (DiskCache) holding verified
//     RunResult records keyed by spec digest + build fingerprint, so a
//     repeated invocation replays instead of re-simulating.
//
// Observed runs (Observe, RunObserved) bypass both and always simulate: each
// gets its own metrics registry and a run-labeled trace chain, so they
// execute in parallel without sharing any metric.
package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/energy"
	"repro/internal/exec"
	"repro/internal/mapping"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// ConfigName identifies one system configuration under evaluation.
type ConfigName string

// The evaluated configurations.
const (
	CfgBaseline    ConfigName = "baseline"      // 68 SMs, no NDP (the normalization base)
	CfgIdeal       ConfigName = "ideal"         // Fig. 2: free offload + perfect co-location
	CfgNoCtrlBmap  ConfigName = "noctrl-bmap"   // offload everything, baseline mapping
	CfgNoCtrlTmap  ConfigName = "noctrl-tmap"   // offload everything, transparent mapping
	CfgCtrlBmap    ConfigName = "ctrl-bmap"     // dynamic control, baseline mapping
	CfgCtrlTmap    ConfigName = "ctrl-tmap"     // TOM: dynamic control + transparent mapping
	CfgCtrlOracle  ConfigName = "ctrl-oracle"   // Fig. 3: oracle best-bit mapping
	CfgWarp2x      ConfigName = "ctrl-tmap-w2"  // §6.4: 2x stack-SM warp capacity
	CfgWarp4x      ConfigName = "ctrl-tmap-w4"  // §6.4: 4x stack-SM warp capacity
	CfgInternal1x  ConfigName = "ctrl-tmap-i1"  // §6.5: internal BW = external BW
	CfgCross0125   ConfigName = "ctrl-tmap-x18" // §6.5: cross-stack BW 0.125x
	CfgCross025    ConfigName = "ctrl-tmap-x14" // §6.5: cross-stack BW 0.25x
	CfgCross100    ConfigName = "ctrl-tmap-x1"  // §6.5: cross-stack BW 1x
	CfgNoCoherence ConfigName = "ctrl-tmap-nc"  // §4.4.2: coherence protocol off
	// Fig. 3: ctrl-tmap with the bit its own ctrl-tmap run learned, preset
	// before cycle 0 — the mapping known ahead of time, learning free.
	CfgCtrlTmapPreset ConfigName = "ctrl-tmap-preset"
	// Extension ablation (§6.4 future work): ALU-ratio-aware control at
	// 4x stack warp capacity, versus plain 4x (CfgWarp4x).
	CfgWarp4xALU ConfigName = "ctrl-tmap-w4-alu"
	// Rival offload policies (-exp policies): CODA-style co-location-aware
	// offloading on TOM's system (transparent mapping retained — the veto
	// replaces the mapping-oblivious send), and near-bank MPU offload on
	// the baseline mapping (near-bank units address vaults directly; the
	// transparent remap would fight the per-vault destination choice).
	CfgCoda ConfigName = "coda"
	CfgMPU  ConfigName = "mpu"
)

// AllConfigNames lists every declared configuration in evaluation order.
// tomx run -list and the registry test derive from this single list, so
// adding a configuration here is sufficient to list it and cover it; what
// tomx simulates is the subset the experiments table names.
func AllConfigNames() []ConfigName {
	return []ConfigName{
		CfgBaseline, CfgIdeal, CfgNoCtrlBmap, CfgNoCtrlTmap, CfgCtrlBmap,
		CfgCtrlTmap, CfgCtrlOracle, CfgCtrlTmapPreset, CfgWarp2x, CfgWarp4x, CfgInternal1x,
		CfgCross0125, CfgCross025, CfgCross100, CfgNoCoherence, CfgWarp4xALU,
		CfgCoda, CfgMPU,
	}
}

// buildConfig materializes a named configuration.
func buildConfig(name ConfigName) (sim.Config, error) {
	c := sim.DefaultConfig()
	switch name {
	case CfgBaseline:
		return sim.BaselineConfig(), nil
	case CfgIdeal:
		c.Mapping = sim.MapBaseline
		c.Policy = "ideal"
	case CfgNoCtrlBmap:
		c.Mapping = sim.MapBaseline
		c.Policy = "noctrl"
	case CfgNoCtrlTmap:
		c.Policy = "noctrl"
	case CfgCtrlBmap:
		c.Mapping = sim.MapBaseline
	case CfgCtrlTmap, CfgCtrlTmapPreset, CfgCtrlOracle:
		// TOM default; the preset and the oracle bit are the session's
		// (presetMapping).
	case CfgWarp2x:
		c.StackWarpMult = 2
	case CfgWarp4x:
		c.StackWarpMult = 4
	case CfgInternal1x:
		c.InternalBWRatio = 0.5
	case CfgCross0125:
		c.CrossStackBW = c.GPUStackBW * 0.125
	case CfgCross025:
		c.CrossStackBW = c.GPUStackBW * 0.25
	case CfgCross100:
		c.CrossStackBW = c.GPUStackBW
	case CfgNoCoherence:
		c.Coherence = false
	case CfgWarp4xALU:
		c.StackWarpMult = 4
		c.Policy = "tom-alu"
	case CfgCoda:
		c.Policy = "coda"
	case CfgMPU:
		c.Mapping = sim.MapBaseline
		c.Policy = "mpu"
	default:
		return c, fmt.Errorf("core: unknown configuration %q", name)
	}
	return c, nil
}

// RunResult is one (workload, configuration) measurement.
type RunResult struct {
	Abbr   string
	Config ConfigName
	Stats  sim.Stats
	Energy energy.Breakdown
}

// Options configures a Session.
type Options struct {
	// Scale is the problem-size scale factor (1.0 = benchmark default) at
	// which named configurations resolve (Spec, Run, Experiment, ...). A
	// spec carries its own scale: Execute runs it at that one.
	Scale float64
	// CacheDir, when non-empty, enables the persistent result cache
	// rooted at that directory (conventionally ".tomcache").
	CacheDir string
	// Fingerprint overrides the build fingerprint gating persistent
	// records; "" selects BuildFingerprint(). Tests use this to force
	// stale-build invalidation.
	Fingerprint string
	// Progress, when non-nil, receives one line per completed run.
	Progress func(format string, args ...any)
}

// CacheStats summarizes how a Session's runs were satisfied.
type CacheStats struct {
	MemoHits  uint64 // served from the in-memory memo
	DiskHits  uint64 // replayed from the persistent cache
	Simulated uint64 // executed (persistent-cache misses)
}

// Session executes runs through the layered cache architecture described in
// the package comment. It builds workload instances at each spec's scale,
// memoizes runs by spec digest and instances, references and profiles by
// (workload, scale), and verifies every timing run against the functional
// reference. It is safe for concurrent use: simultaneous requests for the
// same run are deduplicated, distinct runs proceed in parallel (see Warm and
// Timeline), and one session serves specs of any scale.
type Session struct {
	scale    float64                          // Options.Scale
	progress func(format string, args ...any) // Options.Progress

	cache *DiskCache // nil = persistent layer disabled

	mu       sync.Mutex
	inflight map[string]*flight
	insts    map[instKey]*workloads.Instance // pristine instances
	refs     map[instKey]*mem.Flat           // functional-reference memories
	profiles map[instKey]*sim.Profile
	runs     map[string]*RunResult // keyed by RunSpec digest
	stats    CacheStats
}

// instKey names one workload instance: a workload built at a problem scale.
type instKey struct {
	abbr  string
	scale float64
}

// NewSession creates a session with the given options.
func NewSession(opts Options) *Session {
	s := &Session{
		scale:    opts.Scale,
		progress: opts.Progress,
		inflight: map[string]*flight{},
		insts:    map[instKey]*workloads.Instance{},
		refs:     map[instKey]*mem.Flat{},
		profiles: map[instKey]*sim.Profile{},
		runs:     map[string]*RunResult{},
	}
	if opts.CacheDir != "" {
		s.cache = NewDiskCache(opts.CacheDir, opts.Fingerprint)
	}
	return s
}

func (s *Session) logf(format string, args ...any) {
	if s.progress != nil {
		s.progress(format, args...)
	}
}

// Spec resolves the canonical RunSpec for one workload × configuration at
// the session's default scale.
func (s *Session) Spec(abbr string, name ConfigName) (RunSpec, error) {
	return NewRunSpec(abbr, s.scale, name)
}

// memo returns m[k], building it on first use. Concurrent first users share
// one flight per kind and key; a failed build leaves nothing behind, so the
// next caller retries.
func memo[T any](s *Session, kind string, k instKey, m map[instKey]T, build func() (T, error)) (T, error) {
	err := s.once(fmt.Sprintf("%s/%s@%v", kind, k.abbr, k.scale), func() error {
		s.mu.Lock()
		_, ok := m[k]
		s.mu.Unlock()
		if ok {
			return nil
		}
		v, err := build()
		if err != nil {
			return err
		}
		s.mu.Lock()
		m[k] = v
		s.mu.Unlock()
		return nil
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return m[k], err
}

// CheckScale refuses a problem scale that is not a positive finite number.
// NaN would also break the memo: a NaN key never equals itself.
func CheckScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("scale %v: want a positive finite number", scale)
	}
	return nil
}

// instance returns the pristine instance of a workload at a scale: the one
// place a scale first meets a workload.
func (s *Session) instance(abbr string, scale float64) (*workloads.Instance, error) {
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	return memo(s, "inst", instKey{abbr, scale}, s.insts, func() (*workloads.Instance, error) {
		w, err := workloads.ByAbbr(abbr)
		if err != nil {
			return nil, err
		}
		return w.Build(scale)
	})
}

// reference returns (building once) the functional-reference final memory.
func (s *Session) reference(abbr string, scale float64) (*mem.Flat, error) {
	return memo(s, "ref", instKey{abbr, scale}, s.refs, func() (*mem.Flat, error) {
		in, err := s.instance(abbr, scale)
		if err != nil {
			return nil, err
		}
		c := in.Clone()
		if err := exec.RunFunctionalAll(c.Mem, c.Launches); err != nil {
			return nil, fmt.Errorf("%s: functional reference: %w", abbr, err)
		}
		if in.Check != nil {
			if err := in.Check(c.Mem); err != nil {
				return nil, fmt.Errorf("%s: reference self-check: %w", abbr, err)
			}
		}
		return c.Mem, nil
	})
}

// profile returns (running once) the instrumented functional profile.
func (s *Session) profile(abbr string, scale float64) (*sim.Profile, error) {
	return memo(s, "prof", instKey{abbr, scale}, s.profiles, func() (*sim.Profile, error) {
		in, err := s.instance(abbr, scale)
		if err != nil {
			return nil, err
		}
		c := in.Clone()
		p, err := sim.RunProfile(c.Mem, c.Alloc, c.Launches)
		if err != nil {
			return nil, fmt.Errorf("%s: profile: %w", abbr, err)
		}
		s.logf("profile %-4s instances=%d", abbr, p.Map.Instances())
		return p, nil
	})
}

// Run executes (or replays from a cache layer) workload × configuration at
// the session's default scale.
func (s *Session) Run(abbr string, name ConfigName) (*RunResult, error) {
	spec, err := s.Spec(abbr, name)
	if err != nil {
		return nil, err
	}
	res, _, err := s.Execute(spec)
	return res, err
}

// RunObserved executes workload × configuration at the session's default
// scale with o attached (nil = none). Like Observe it always executes: it
// is verified like any other run but never memoized or replayed, because
// each caller wants its own time series and only an execution can produce
// one (the end-of-run stats equal the cached run's anyway — observation is
// timing-free).
func (s *Session) RunObserved(abbr string, name ConfigName, o *obs.Observer) (*RunResult, error) {
	spec, err := s.Spec(abbr, name)
	if err != nil {
		return nil, err
	}
	return s.runUncached(spec, o)
}

// Observe executes spec with a private metrics registry, sampled every
// interval cycles (0 = obs.DefaultSampleEvery), and returns the verified
// result with the run's snapshot. When trace is non-nil it receives the
// run's lifecycle events through the chain SamplingSink(traceSample) →
// LabelSink(spec.Key()) → trace, so events and the trace_sampled summaries
// alike carry the run label, and several runs can share one trace. The
// chain is flushed whether or not the run succeeds: a run that failed
// halfway has already pushed events through it, and its summaries must
// still say what was sampled away. Like RunObserved it always executes.
func (s *Session) Observe(spec RunSpec, trace obs.EventSink, traceSample int, interval int64) (*RunResult, *obs.Snapshot, error) {
	o := &obs.Observer{Registry: obs.NewRegistry(), SampleEvery: interval}
	if trace != nil {
		o.Trace = obs.NewSamplingSink(obs.NewLabelSink(trace, spec.Key()), traceSample)
	}
	res, err := s.runUncached(spec, o)
	if flushErr := obs.Flush(o.Trace); err == nil {
		err = flushErr
	}
	if err != nil {
		return nil, nil, err
	}
	return res, o.Registry.Snapshot(), nil
}

// RunSource reports which layer satisfied a run (see Execute).
type RunSource string

const (
	// SourceMemo: served by the in-memory memo, including requests that
	// were deduplicated onto another caller's in-flight execution.
	SourceMemo RunSource = "memo"
	// SourceDisk: replayed from the persistent cache.
	SourceDisk RunSource = "disk"
	// SourceSimulated: a fresh verified simulation.
	SourceSimulated RunSource = "simulated"
)

// Lookup returns the run's result if a cache layer already holds it — the
// memo, then the persistent cache, whose hits are promoted into the memo —
// and a nil result otherwise. It never simulates and never waits for a
// running flight, so a server can answer hits without a scheduler slot.
// digest must be spec.Digest().
func (s *Session) Lookup(spec RunSpec, digest string) (*RunResult, RunSource, error) {
	s.mu.Lock()
	res, ok := s.runs[digest]
	if ok {
		s.stats.MemoHits++
	}
	s.mu.Unlock()
	if ok {
		return res, SourceMemo, nil
	}
	if s.cache == nil {
		return nil, "", nil
	}
	res, ok, err := s.cache.Get(digest)
	if err != nil || !ok {
		return nil, "", err
	}
	s.logf("hit %-4s %-14s cycles=%-9d (replayed %.8s)",
		spec.Abbr, spec.Config, res.Stats.Cycles, digest)
	s.memoize(digest, res, &s.stats.DiskHits)
	return res, SourceDisk, nil
}

// memoize files a run's result in the memo and counts it in one CacheStats
// field.
func (s *Session) memoize(digest string, res *RunResult, count *uint64) {
	s.mu.Lock()
	s.runs[digest] = res
	*count++
	s.mu.Unlock()
}

// Execute runs one fully-resolved spec, at the spec's own scale, through
// the layered caches — the entry point under Run and Warm, and the one for
// callers that run a named configuration at another scale than the
// session's. The returned source names the layer that satisfied
// the run; batch servers account per batch with it, which the cumulative
// CacheStats cannot once batches overlap.
//
// Each run is one flight per digest. It probes the caches through
// Lookup — inside the flight, so a caller arriving between another's disk
// write and memo write cannot read that record back as a disk hit — and
// simulates on a miss, writing the verified result back. A caller
// deduplicated onto someone else's flight finds the result in the memo
// afterwards and reports SourceMemo: the session did no extra work for it.
func (s *Session) Execute(spec RunSpec) (res *RunResult, src RunSource, err error) {
	digest := spec.Digest()
	err = s.once("run/"+digest, func() (err error) {
		if res, src, err = s.Lookup(spec, digest); res != nil || err != nil {
			return err
		}
		if res, err = s.runUncached(spec, nil); err != nil {
			return err
		}
		src = SourceSimulated
		s.logf("run %-4s %-14s cycles=%-9d IPC=%6.1f offloads=%-7d traffic=%dMB",
			spec.Abbr, spec.Config, res.Stats.Cycles, res.Stats.IPC(), res.Stats.OffloadsSent,
			res.Stats.OffChipBytes()>>20)
		if s.cache != nil {
			if err := s.cache.put(digest, res); err != nil {
				// A write failure costs future replays, not correctness.
				s.logf("%v", err)
			}
		}
		s.memoize(digest, res, &s.stats.Simulated)
		return nil
	})
	if res == nil && err == nil {
		res, src, err = s.Lookup(spec, digest)
	}
	return res, src, err
}

// runUncached simulates and verifies spec with o attached (nil = none),
// bypassing both cache layers.
func (s *Session) runUncached(spec RunSpec, o *obs.Observer) (*RunResult, error) {
	abbr := spec.Abbr
	in, err := s.instance(abbr, spec.Scale)
	if err != nil {
		return nil, err
	}
	cfg := spec.Cfg
	cfg.Observer = o
	bit, ranges, err := s.presetMapping(spec)
	if err != nil {
		return nil, err
	}
	// Clone shares the pristine image's pages copy-on-write and reads
	// nothing a session ever writes (Build returns the image sealed, and
	// every run stores to its own clone).
	c := in.Clone()
	sys := sim.New(cfg, c.Mem, c.Alloc)
	if bit != mapping.Interleave {
		// A mapping that does not fit the instance fails the run loudly:
		// a wrong mapping must never run silently.
		if err := sys.InstallMapping(bit, ranges); err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Key(), err)
		}
	}
	if err := sys.Run(c.Launches); err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Key(), err)
	}
	// Verification: the timing run must reproduce the functional memory
	// image exactly, and pass the workload's self-check.
	ref, err := s.reference(abbr, spec.Scale)
	if err != nil {
		return nil, err
	}
	if ok, addr := mem.Equal(ref, c.Mem); !ok {
		return nil, fmt.Errorf("%s: timing run diverged from functional reference at %#x", spec.Key(), addr)
	}
	if in.Check != nil {
		if err := in.Check(c.Mem); err != nil {
			return nil, fmt.Errorf("%s: self-check: %w", spec.Key(), err)
		}
	}
	res := &RunResult{Abbr: abbr, Config: spec.Config, Stats: *sys.Stats()}
	res.Energy = energy.Compute(&res.Stats, cfg, energy.DefaultParams())
	return res, nil
}

// presetMapping returns the mapping a spec's run puts in force before cycle
// 0, or mapping.Interleave when the run starts without one. Both preset
// configurations simulate ctrl-tmap's configuration and differ from it only
// by name. Fig. 3's oracle (ctrl-oracle) presets the profile's best bit over
// all instances on the ranges candidate instances touch. ctrl-tmap-preset
// presets the bit and ranges the same spec learned under ctrl-tmap, a run
// Execute finds in the memo or on disk, or simulates; when that run learned
// no valid mapping, nothing is preset and the cell learns exactly as
// ctrl-tmap does.
func (s *Session) presetMapping(spec RunSpec) (int, []string, error) {
	switch spec.Config {
	case CfgCtrlOracle:
		prof, err := s.profile(spec.Abbr, spec.Scale)
		if err != nil {
			return 0, nil, err
		}
		return prof.Map.BestBit(), prof.Touched, nil
	case CfgCtrlTmapPreset:
		learn := spec
		learn.Config = CfgCtrlTmap
		res, _, err := s.Execute(learn)
		if err != nil {
			return 0, nil, err
		}
		st := &res.Stats
		if st.LearnedBit >= mapping.MinBit && st.LearnedBit <= mapping.MaxBit && len(st.MappedRanges) > 0 {
			return st.LearnedBit, st.MappedRanges, nil
		}
	}
	return mapping.Interleave, nil, nil
}

// Abbrs returns the workload abbreviations in paper order.
func Abbrs() []string {
	var out []string
	for _, w := range workloads.All() {
		out = append(out, w.Abbr)
	}
	return out
}

// CacheStats reports how the session's completed runs were satisfied.
func (s *Session) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// CacheDir returns the persistent cache root ("" when disabled).
func (s *Session) CacheDir() string {
	if s.cache == nil {
		return ""
	}
	return s.cache.Dir()
}
