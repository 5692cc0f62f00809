package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// TestAdaptiveCostDigestDistinct is the aliasing regression from this PR's
// acceptance criteria: two adaptive runs differing only in the refinement's
// cost model are different measurements — their RunSpec digests, and hence
// their persistent-cache record paths, must differ. Before the fix,
// AdaptOptions.spec() dropped Refine.Cost and both landed on one record.
func TestAdaptiveCostDigestDistinct(t *testing.T) {
	base, err := NewRunSpec("SP", 0.3, CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	o1 := AdaptOptions{}.withDefaults()
	o2 := o1
	o2.Refine.Cost.MissLD = 0.9 // only the cost model differs

	s1, s2 := base, base
	a1, a2 := o1.spec(), o2.spec()
	s1.Adapt, s2.Adapt = &a1, &a2
	if s1.Digest() == s2.Digest() {
		t.Fatal("adaptive specs differing only in Refine.Cost share a digest")
	}
	c := NewDiskCache(t.TempDir(), "fp")
	if c.path(s1.Digest()) == c.path(s2.Digest()) {
		t.Fatal("cost-param-differing adaptive runs share a disk-cache path")
	}

	// The iterated-loop identity must separate too: the bound, the
	// intermediate-pass index, and the applied-profile digest.
	seen := map[string]AdaptSpec{s1.Digest(): a1}
	for _, mut := range []func(*AdaptSpec){
		func(a *AdaptSpec) { a.Iterations = 5 },
		func(a *AdaptSpec) { a.Iteration = 1 },
		func(a *AdaptSpec) { a.FeedbackDigest = "deadbeef" },
		func(a *AdaptSpec) { a.Cost.WarpSize = 64 },
	} {
		a := a1
		mut(&a)
		sp := base
		sp.Adapt = &a
		if prev, dup := seen[sp.Digest()]; dup {
			t.Errorf("digest collision between %+v and %+v", prev, a)
		}
		seen[sp.Digest()] = a
	}
}

// TestRunAdaptiveIteratedConvergesAndPersists: the iterated loop must reach
// a fixed point within the bound, persist the converged refinement, and a
// later session must install the stored table without any profiling pass —
// with byte-identical feedback and history.
func TestRunAdaptiveIteratedConvergesAndPersists(t *testing.T) {
	dir := t.TempDir()
	opts := AdaptOptions{ProfileFrac: 0.5, Iterations: 3}

	s := NewSession(Options{Scale: 0.1, CacheDir: dir, Fingerprint: "fp"})
	ad, err := s.RunAdaptiveIterated("LIB", CfgCtrlTmap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ad.Converged || ad.ConvergedAt < 2 {
		t.Fatalf("iterated run did not converge: %+v", ad)
	}
	if ad.FromStore || ad.Profile == nil {
		t.Fatalf("cold iterated run must profile: FromStore=%v Profile=%v", ad.FromStore, ad.Profile)
	}
	if len(ad.History) != ad.Iterations {
		t.Fatalf("history has %d entries for %d iterations", len(ad.History), ad.Iterations)
	}
	if fs := s.FeedbackStats(); fs.StoreMisses != 1 || fs.StoreHits != 0 ||
		fs.Iterations != uint64(ad.Iterations) || fs.Converged != 1 {
		t.Fatalf("cold feedback stats = %+v", fs)
	}
	coldTable, err := json.Marshal(ad.Feedback)
	if err != nil {
		t.Fatal(err)
	}

	// Fresh session, same cache: the persisted store supplies the converged
	// table — no profiling pass, no simulation at all (the full pass
	// replays from the result cache).
	warm := NewSession(Options{Scale: 0.1, CacheDir: dir, Fingerprint: "fp"})
	ad2, err := warm.RunAdaptiveIterated("LIB", CfgCtrlTmap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ad2.FromStore || ad2.Profile != nil {
		t.Fatalf("warm iterated run must come from the store: FromStore=%v Profile=%v",
			ad2.FromStore, ad2.Profile)
	}
	if fs := warm.FeedbackStats(); fs.StoreHits != 1 || fs.StoreMisses != 0 || fs.Iterations != 0 {
		t.Fatalf("warm feedback stats = %+v (a store hit must skip profiling)", fs)
	}
	if cs := warm.CacheStats(); cs.Simulated != 0 || cs.DiskHits != 1 {
		t.Fatalf("warm cache stats = %+v, want full pass replayed and nothing simulated", cs)
	}
	warmTable, err := json.Marshal(ad2.Feedback)
	if err != nil {
		t.Fatal(err)
	}
	if string(coldTable) != string(warmTable) {
		t.Errorf("restored feedback table differs:\ncold %s\nwarm %s", coldTable, warmTable)
	}
	if !reflect.DeepEqual(ad.History, ad2.History) ||
		ad.Iterations != ad2.Iterations || ad.ConvergedAt != ad2.ConvergedAt {
		t.Errorf("restored iteration record differs: %+v vs %+v", ad, ad2)
	}
	if ad2.Result.Stats.Cycles != ad.Result.Stats.Cycles {
		t.Errorf("restored run differs: %d vs %d cycles", ad2.Result.Stats.Cycles, ad.Result.Stats.Cycles)
	}

	// Sanity: single-pass RunAdaptive never consults the store.
	solo := NewSession(Options{Scale: 0.1, CacheDir: dir, Fingerprint: "fp"})
	if _, err := solo.RunAdaptive("LIB", CfgCtrlTmap, AdaptOptions{ProfileFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	if fs := solo.FeedbackStats(); fs.StoreHits != 0 || fs.StoreMisses != 0 {
		t.Errorf("RunAdaptive touched the feedback store: %+v", fs)
	}
}

// TestAdaptIteratedObservability: the iterated loop must export its
// progress as session-level obs metrics and lifecycle events.
func TestAdaptIteratedObservability(t *testing.T) {
	o := obs.New()
	sink := &obs.CollectSink{}
	o.Trace = sink
	s := NewSession(Options{Scale: 0.1, CacheDir: t.TempDir(), Fingerprint: "fp", Obs: o})
	ad, err := s.RunAdaptiveIterated("LIB", CfgCtrlTmap, AdaptOptions{ProfileFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := o.Registry
	if got := reg.Counter("adapt.iterations").Value(); got != uint64(ad.Iterations) {
		t.Errorf("adapt.iterations = %d, want %d", got, ad.Iterations)
	}
	if got := reg.Counter("adapt.converged").Value(); got != 1 {
		t.Errorf("adapt.converged = %d, want 1", got)
	}
	if got := reg.Counter("feedback.store_misses").Value(); got != 1 {
		t.Errorf("feedback.store_misses = %d, want 1", got)
	}
	kinds := map[string][]obs.Event{}
	for _, ev := range sink.Events() {
		kinds[ev.Kind] = append(kinds[ev.Kind], ev)
	}
	if got := len(kinds[obs.EvAdaptIter]); got != ad.Iterations {
		t.Errorf("%d adapt_iter events, want %d", got, ad.Iterations)
	}
	done := kinds[obs.EvAdaptDone]
	if len(done) != 1 || done[0].Reason != "converged" || done[0].N != ad.Iterations {
		t.Errorf("adapt_done events = %+v", done)
	}
	var reasons []string
	for _, ev := range kinds[obs.EvFeedbackStore] {
		reasons = append(reasons, ev.Reason)
	}
	if !reflect.DeepEqual(reasons, []string{"miss", "save"}) {
		t.Errorf("feedback_store reasons = %v, want [miss save]", reasons)
	}
	for _, ev := range sink.Events() {
		if ev.Run == "" && (ev.Kind == obs.EvAdaptIter || ev.Kind == obs.EvAdaptDone) {
			t.Errorf("session-level event missing its run label: %+v", ev)
		}
	}
}
