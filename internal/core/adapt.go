package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/compiler"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sim"
)

// AdaptSpec is the identity of an adaptive run's feedback component: the
// profiling scale, the refinement thresholds, the cost model, and — for
// iterated runs — the loop identity. It is part of RunSpec and of the cache
// digest (see RunSpec.Digest), so adaptive and static runs of the same
// configuration never collide in any cache layer, and neither do two
// adaptive runs differing in any feedback parameter.
type AdaptSpec struct {
	// ProfileFrac scales the profiling pass: it runs at the session's
	// scale multiplied by this fraction (§3.2's learning philosophy —
	// observe a small prefix, commit for the rest).
	ProfileFrac float64
	// DemoteGateRate and MinDecisions mirror compiler.RefineParams.
	DemoteGateRate float64
	MinDecisions   uint64
	// Cost is the cost model marking and re-tagging evaluate equations
	// (3)/(4) with. It was once dropped from the spec, aliasing adaptive
	// runs that differed only in cost constants onto one cache record.
	Cost compiler.CostParams
	// Iterations is the iterated fixed-point bound (0 = single-pass
	// RunAdaptive), so iterated results never collide with single-pass
	// ones.
	Iterations int
	// Iteration marks the i-th intermediate profiling pass of an iterated
	// run (1-based; 0 = the full measurement pass). Intermediate passes
	// leave Iterations zero so passes are shared across bounds: pass i
	// depends only on passes before it, never on the bound.
	Iteration int
	// FeedbackDigest is the content hash (profileDigest) of the gate
	// profile this run applies through ApplyGateFeedback — the spec-level
	// record of what the prep hook changes, so replays can never diverge
	// from fresh executions.
	FeedbackDigest string
}

// DefaultAdaptIterations bounds RunAdaptiveIterated's profile→refine loop
// when AdaptOptions.Iterations is zero.
const DefaultAdaptIterations = 3

// AdaptOptions configures RunAdaptive and RunAdaptiveIterated. The zero
// value selects defaults.
type AdaptOptions struct {
	// ProfileFrac is the profiling-pass scale fraction (default 0.25).
	ProfileFrac float64
	// Refine overrides the refinement parameters; a zero value selects
	// compiler.DefaultRefineParams(). A partially-set value with a zero
	// Cost gets the default cost model.
	Refine compiler.RefineParams
	// Iterations bounds the iterated fixed-point loop (default
	// DefaultAdaptIterations). RunAdaptive ignores it (single pass).
	Iterations int
}

func (o AdaptOptions) withDefaults() AdaptOptions {
	if o.ProfileFrac <= 0 {
		o.ProfileFrac = 0.25
	}
	if o.Refine == (compiler.RefineParams{}) {
		o.Refine = compiler.DefaultRefineParams()
	}
	if o.Refine.Cost == (compiler.CostParams{}) {
		o.Refine.Cost = compiler.DefaultCostParams()
	}
	if o.Iterations <= 0 {
		o.Iterations = DefaultAdaptIterations
	}
	return o
}

// spec projects the options onto the digest-relevant identity (loop fields
// are filled in by the adaptive loop as passes are issued).
func (o AdaptOptions) spec() AdaptSpec {
	return AdaptSpec{
		ProfileFrac:    o.ProfileFrac,
		DemoteGateRate: o.Refine.DemoteGateRate,
		MinDecisions:   o.Refine.MinDecisions,
		Cost:           o.Refine.Cost,
		Iterations:     o.Iterations,
	}
}

// profileDigest content-hashes an observed gate profile: sorted PCs, every
// counter. It keys intermediate iterated passes (the table they apply) and
// stamps the full pass's spec, making the prep hook's effect part of the
// run identity.
func profileDigest(p compiler.GateProfile) string {
	h := sha256.New()
	for _, pc := range p.PCs() {
		g := p[pc]
		fmt.Fprintf(h, "%d:%d,%d,%d,%d,%d,%d,%d,%d,%d;",
			pc, g.Sent, g.SkippedCond, g.SkippedBusy, g.SkippedFull,
			g.SkippedALU, g.SkippedNoDest, g.LearnEntries, g.TripSum, g.TripObs)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// AdaptIteration summarizes one profile→refine iteration: what the
// refinement would change given everything observed so far.
type AdaptIteration struct {
	Iteration int `json:"iteration"`
	// Demoted and Retagged are the candidate start PCs the accumulated
	// profile demotes / re-tags — the fixed-point state the loop compares
	// across iterations.
	Demoted  []int `json:"demoted,omitempty"`
	Retagged []int `json:"retagged,omitempty"`
	// Decisions counts the offload decisions this pass observed.
	Decisions uint64 `json:"decisions,omitempty"`
}

// AdaptiveRun bundles the passes of one adaptive measurement.
type AdaptiveRun struct {
	// Profile is the last reduced-scale profiling pass (nil when the
	// converged table came from the persisted feedback store).
	Profile *RunResult
	// Result is the full-scale run with the refined candidate set.
	Result *RunResult
	// Spec records the feedback parameters of the full pass, including the
	// digest of the applied gate profile.
	Spec AdaptSpec
	// Iterations is the number of profiling iterations behind Feedback
	// (replayed from the store record on a store hit).
	Iterations int
	// Converged reports whether the demoted/retagged sets reached a fixed
	// point before the iteration bound; ConvergedAt is the iteration at
	// which they did (0 when the bound was hit first).
	Converged   bool
	ConvergedAt int
	// History holds one entry per profiling iteration.
	History []AdaptIteration
	// Feedback is the merged gate profile the full pass ran with.
	Feedback compiler.GateProfile
	// FromStore reports that Feedback was loaded from the persisted
	// per-workload store instead of being re-profiled.
	FromStore bool
}

// profileSession returns (creating once) the reduced-scale sub-session for
// a profile fraction. It shares the parent's persistent cache, so the
// profiling pass replays across processes like any other run.
func (s *Session) profileSession(frac float64) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.profSessions == nil {
		s.profSessions = map[float64]*Session{}
	}
	ps, ok := s.profSessions[frac]
	if !ok {
		ps = NewSession(Options{Scale: s.Scale * frac, Progress: s.Progress})
		ps.cache = s.cache
		s.profSessions[frac] = ps
	}
	return ps
}

// RunAdaptive closes the offload-marking loop for one workload ×
// configuration with a single profile→refine pass: a short profiling run
// observes where the runtime gates (the per-PC decision table
// sim.Stats.PCStats), compiler.Refine demotes candidates whose observed
// gate rate shows static marking got it wrong and re-tags SavesTX/SavesRX
// from observed trip counts, and the full run executes with the refined
// candidate set. Both passes go through the layered caches; each pass's
// spec carries its AdaptSpec, so it is cached independently of the static
// run. The persisted feedback store is not consulted — see
// RunAdaptiveIterated.
func (s *Session) RunAdaptive(abbr string, name ConfigName, o AdaptOptions) (*AdaptiveRun, error) {
	o = o.withDefaults()
	o.Iterations = 0 // single-pass identity; loop bound below is one
	return s.runAdaptiveLoop(abbr, name, o, 1, false)
}

// RunAdaptiveIterated iterates RunAdaptive's loop to a fixed point:
// profile → refine → profile again (each pass running with the refinement
// accumulated so far) until the demoted/retagged candidate sets stop
// changing or o.Iterations passes have run. Successive per-PC gate tables
// are merged (GateProfile.Merge), so the full run commits to everything
// observed. When the session has a persistent cache, the converged
// refinement is stored per (workload, configuration, AdaptSpec) under
// <cache-dir>/feedback/; a later session starts from the stored table with
// no profiling pass at all.
func (s *Session) RunAdaptiveIterated(abbr string, name ConfigName, o AdaptOptions) (*AdaptiveRun, error) {
	o = o.withDefaults()
	return s.runAdaptiveLoop(abbr, name, o, o.Iterations, true)
}

// runAdaptiveLoop is the shared engine: bound profiling iterations, fixed
// point on the refinement outcome, optional persisted-store use.
func (s *Session) runAdaptiveLoop(abbr string, name ConfigName, o AdaptOptions, bound int, useStore bool) (*AdaptiveRun, error) {
	spec, err := s.Spec(abbr, name)
	if err != nil {
		return nil, err
	}
	ad := o.spec()
	key := spec.Key()
	params := o.Refine

	// Store key: the full-pass identity before the converged table is
	// known. Deterministic upfront, so a later session derives the same
	// key without profiling.
	var storeKey string
	if useStore && s.feedback != nil {
		keySpec := spec
		keyAd := ad
		keySpec.Adapt = &keyAd
		storeKey = keySpec.Digest()
		if rec, ok, err := s.feedback.get(storeKey); err != nil {
			return nil, err
		} else if ok {
			s.count(&s.fb.StoreHits, "feedback.store_hits", 1)
			s.obsv.Emit(obs.Event{Kind: obs.EvFeedbackStore, Run: key, Reason: "hit", N: rec.Iterations})
			return s.finishAdaptive(spec, ad, params, &AdaptiveRun{
				Iterations:  rec.Iterations,
				Converged:   rec.Converged,
				ConvergedAt: rec.ConvergedAt,
				History:     rec.History,
				Feedback:    rec.Profile,
				FromStore:   true,
			})
		}
		s.count(&s.fb.StoreMisses, "feedback.store_misses", 1)
		s.obsv.Emit(obs.Event{Kind: obs.EvFeedbackStore, Run: key, Reason: "miss"})
	}

	ps := s.profileSession(o.ProfileFrac)
	merged := compiler.GateProfile{}
	run := &AdaptiveRun{}
	var prevDemoted, prevRetagged []int
	for i := 1; i <= bound; i++ {
		pspec, err := ps.Spec(abbr, name)
		if err != nil {
			return nil, err
		}
		pad := ad
		pad.Iterations = 0 // share passes across bounds: pass i never depends on the bound
		pad.Iteration = i
		pad.FeedbackDigest = profileDigest(merged)
		pspec.Adapt = &pad
		// Apply the accumulated table even on the first pass (when it is
		// empty and refines nothing): installing the feedback parameters is
		// what makes the simulator mark candidates with params.Cost, so
		// every pass of the loop — and the full run — shares one cost model.
		applied := merged.Clone()
		prof, _, err := ps.execute(pspec, nil, func(sys *sim.System) {
			sys.ApplyGateFeedback(applied, params)
		})
		if err != nil {
			return nil, fmt.Errorf("adaptive profile pass %d: %w", i, err)
		}
		run.Profile = prof
		run.Iterations = i
		merged.Merge(prof.Stats.PCStats)
		demoted, retagged, err := s.refineOutcome(abbr, merged, params)
		if err != nil {
			return nil, err
		}
		run.History = append(run.History, AdaptIteration{
			Iteration: i,
			Demoted:   demoted,
			Retagged:  retagged,
			Decisions: profileDecisions(prof.Stats.PCStats),
		})
		s.count(&s.fb.Iterations, "adapt.iterations", 1)
		s.obsv.Emit(obs.Event{Kind: obs.EvAdaptIter, Run: key, N: i})
		if i > 1 && equalInts(demoted, prevDemoted) && equalInts(retagged, prevRetagged) {
			run.Converged = true
			run.ConvergedAt = i
			break
		}
		prevDemoted, prevRetagged = demoted, retagged
	}
	run.Feedback = merged
	reason := "bound"
	if run.Converged {
		reason = "converged"
		s.count(&s.fb.Converged, "adapt.converged", 1)
	}
	s.obsv.Emit(obs.Event{Kind: obs.EvAdaptDone, Run: key, N: run.Iterations, Reason: reason})
	if useStore && s.feedback != nil {
		rec := &FeedbackRecord{
			Workload:    abbr,
			Scale:       s.Scale,
			Config:      string(name),
			Spec:        ad,
			Iterations:  run.Iterations,
			Converged:   run.Converged,
			ConvergedAt: run.ConvergedAt,
			History:     run.History,
			Profile:     merged,
		}
		if err := s.feedback.put(storeKey, rec); err != nil {
			// A store-write failure costs future sessions a re-profile,
			// not correctness.
			s.logf("%v", err)
		} else {
			s.obsv.Emit(obs.Event{Kind: obs.EvFeedbackStore, Run: key, Reason: "save", N: run.Iterations})
		}
	}
	return s.finishAdaptive(spec, ad, params, run)
}

// finishAdaptive executes the full-scale pass with the converged table
// installed and completes the AdaptiveRun.
func (s *Session) finishAdaptive(spec RunSpec, ad AdaptSpec, params compiler.RefineParams, run *AdaptiveRun) (*AdaptiveRun, error) {
	ad.FeedbackDigest = profileDigest(run.Feedback)
	spec.Adapt = &ad
	table := run.Feedback.Clone()
	res, _, err := s.execute(spec, nil, func(sys *sim.System) {
		sys.ApplyGateFeedback(table, params)
	})
	if err != nil {
		return nil, err
	}
	run.Result = res
	run.Spec = ad
	return run, nil
}

// refineOutcome computes — without simulating — what compiler.Refine would
// change across every kernel of the workload given an observed profile: the
// sorted demoted and re-tagged candidate start PCs. This is the state the
// iterated loop drives to a fixed point. The metadata is analyzed with the
// refinement's own cost model, mirroring what a simulator run with the same
// feedback installed would mark.
func (s *Session) refineOutcome(abbr string, prof compiler.GateProfile, p compiler.RefineParams) (demoted, retagged []int, err error) {
	in, err := s.instance(abbr)
	if err != nil {
		return nil, nil, err
	}
	seen := map[*isa.Kernel]bool{}
	for _, l := range in.Launches {
		if seen[l.Kernel] {
			continue
		}
		seen[l.Kernel] = true
		md, err := compiler.Analyze(l.Kernel, p.Cost)
		if err != nil {
			return nil, nil, err
		}
		res := compiler.Refine(md, prof, p)
		for _, c := range res.Demoted {
			demoted = append(demoted, c.StartPC)
		}
		for _, c := range res.Retagged {
			retagged = append(retagged, c.StartPC)
		}
	}
	sort.Ints(demoted)
	sort.Ints(retagged)
	return demoted, retagged, nil
}

// profileDecisions sums the offload decisions across a per-PC table.
func profileDecisions(p compiler.GateProfile) uint64 {
	var n uint64
	for _, g := range p {
		n += g.Decisions()
	}
	return n
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// adaptRows compares static offload control against the adaptive
// profile-and-refine loop over the Fig. 9 workload set: speedups over the
// baseline for both, plus how many candidates the feedback demoted or
// re-tagged. iters == 0 is the single-pass loop (-exp adapt): the notes
// carry each workload's per-PC gate rates from the profiling pass — the
// observed evidence the refinement acted on. iters > 0 runs every workload
// through RunAdaptiveIterated with that bound, adds the convergence iteration
// per workload (0 = the bound was hit before a fixed point) and traces each
// workload's per-iteration demotions and re-tags in the notes; that text
// derives only from the converged record, so a session replaying from the
// feedback store prints byte-identical tables.
func (r *Runner) adaptRows(t *Table, iters int) error {
	var static, adaptive, demoted, retagged, conv []float64
	for _, abbr := range Abbrs() {
		b, err := r.Run(abbr, CfgBaseline)
		if err != nil {
			return err
		}
		st, err := r.Run(abbr, CfgCtrlTmap)
		if err != nil {
			return err
		}
		var ad *AdaptiveRun
		if iters > 0 {
			ad, err = r.RunAdaptiveIterated(abbr, CfgCtrlTmap, AdaptOptions{Iterations: iters})
		} else {
			ad, err = r.RunAdaptive(abbr, CfgCtrlTmap, AdaptOptions{})
		}
		if err != nil {
			return err
		}
		static = append(static, st.Stats.IPC()/b.Stats.IPC())
		adaptive = append(adaptive, ad.Result.Stats.IPC()/b.Stats.IPC())
		demoted = append(demoted, float64(ad.Result.Stats.RefineDemoted))
		retagged = append(retagged, float64(ad.Result.Stats.RefineRetagged))
		conv = append(conv, float64(ad.ConvergedAt))
		if iters > 0 {
			t.Notes = append(t.Notes, iterationNote(abbr, ad))
		} else if note := gateRateNote(abbr, ad.Profile.Stats.PCStats); note != "" {
			t.Notes = append(t.Notes, note)
		}
	}
	t.Rows = append(t.Rows,
		Row{Label: "static ctrl-tmap", Values: withAvg(static, GeoMean)},
		Row{Label: "adaptive ctrl-tmap", Values: withAvg(adaptive, GeoMean)},
		Row{Label: "demoted candidates", Values: withAvg(demoted, Mean)},
		Row{Label: "re-tagged candidates", Values: withAvg(retagged, Mean)},
	)
	if iters > 0 {
		t.Rows = append(t.Rows, Row{Label: "converged @ iteration", Values: withAvg(conv, Mean)})
	}
	return nil
}

// AdaptIterated is the iterated-fixed-point variant of -exp adapt (tomx
// -iterate): the same table with iters as the iteration bound.
func (r *Runner) AdaptIterated(iters int) (*Table, error) {
	t := &Table{
		ID: "adapt", Title: "Static vs. iterated adaptive offload control",
		Columns: workloadColumns(),
		Notes: []string{
			fmt.Sprintf("adaptive = profile -> refine -> profile ... to fixed point (bound %d), then full run (ctrl-tmap)", iters),
			"converged @ iteration row: 0 = iteration bound hit before a fixed point",
		},
	}
	return t, r.adaptRows(t, iters)
}

// iterationNote renders one workload's iteration history.
func iterationNote(abbr string, ad *AdaptiveRun) string {
	var parts []string
	for _, it := range ad.History {
		parts = append(parts, fmt.Sprintf("iter%d: %d decisions, demoted %d, re-tagged %d",
			it.Iteration, it.Decisions, len(it.Demoted), len(it.Retagged)))
	}
	outcome := "iteration bound hit"
	if ad.Converged {
		outcome = fmt.Sprintf("converged @ iter %d", ad.ConvergedAt)
	}
	return fmt.Sprintf("%s: %s — %s", abbr, strings.Join(parts, "; "), outcome)
}

// gateRateNote renders one workload's per-PC gate rates ("" when the
// profile saw no candidate entries).
func gateRateNote(abbr string, prof compiler.GateProfile) string {
	var parts []string
	for _, pc := range prof.PCs() {
		g := prof[pc]
		if g.Decisions() == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("pc%d gated %.0f%% (%d/%d, mean trips %.0f)",
			pc, g.GateRate()*100, g.Gated(), g.Decisions(), g.MeanTrips()))
	}
	if len(parts) == 0 {
		return ""
	}
	return abbr + ": " + strings.Join(parts, "; ")
}
