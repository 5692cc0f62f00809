package core

import (
	"testing"

	"repro/internal/compiler"
)

// TestAdaptiveDigestDistinct: an adaptive run is a different measurement
// from the static run of the same configuration — their specs must digest
// differently, and the digest must see every feedback parameter. The CI
// workflow runs this test as its static/adaptive cache-separation check.
func TestAdaptiveDigestDistinct(t *testing.T) {
	static, err := NewRunSpec("SP", 0.3, CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := static
	adaptive.Adapt = &AdaptSpec{ProfileFrac: 0.25, DemoteGateRate: 0.9, MinDecisions: 16}
	if static.Digest() == adaptive.Digest() {
		t.Fatal("adaptive spec digests identically to the static spec")
	}
	again := static
	again.Adapt = &AdaptSpec{ProfileFrac: 0.25, DemoteGateRate: 0.9, MinDecisions: 16}
	if adaptive.Digest() != again.Digest() {
		t.Fatal("equal adaptive specs must digest identically")
	}
	seen := map[string]AdaptSpec{adaptive.Digest(): *adaptive.Adapt}
	for _, a := range []AdaptSpec{
		{ProfileFrac: 0.5, DemoteGateRate: 0.9, MinDecisions: 16},
		{ProfileFrac: 0.25, DemoteGateRate: 0.8, MinDecisions: 16},
		{ProfileFrac: 0.25, DemoteGateRate: 0.9, MinDecisions: 32},
	} {
		sp := static
		sp.Adapt = &a
		if prev, dup := seen[sp.Digest()]; dup {
			t.Errorf("digest collision between %+v and %+v", prev, a)
		}
		seen[sp.Digest()] = a
	}
}

// TestRunAdaptiveCachesAndRefines: the two-pass adaptive run must verify
// like any run, key independently of the static run in every cache layer,
// and replay (both passes) from the persistent cache in a later session.
func TestRunAdaptiveCachesAndRefines(t *testing.T) {
	dir := t.TempDir()
	opts := AdaptOptions{ProfileFrac: 0.5} // profile at a known-good scale
	s := NewSession(Options{Scale: 0.1, CacheDir: dir, Fingerprint: "fp"})
	ad, err := s.RunAdaptive("LIB", CfgCtrlTmap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ad.Profile == nil || ad.Result == nil {
		t.Fatalf("incomplete adaptive run: %+v", ad)
	}
	if ad.Profile.Stats.CandidateInstances == 0 {
		t.Fatal("profile pass saw no candidate entries; nothing to refine from")
	}
	if len(ad.Profile.Stats.PCStats) == 0 {
		t.Fatal("profile pass produced no per-PC decision table")
	}
	if st := s.CacheStats(); st.Simulated != 2 || st.DiskHits != 0 {
		t.Fatalf("cold adaptive run must simulate both passes: %+v", st)
	}

	// Same session again: both passes served from the in-memory memo.
	ad2, err := s.RunAdaptive("LIB", CfgCtrlTmap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ad2.Result != ad.Result {
		t.Error("repeat adaptive run did not come from the memo")
	}
	if st := s.CacheStats(); st.MemoHits != 2 {
		t.Fatalf("memo stats after repeat = %+v", st)
	}

	// The static run is a distinct spec: it must simulate, not alias the
	// adaptive record.
	if _, err := s.Run("LIB", CfgCtrlTmap); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Simulated != 3 {
		t.Fatalf("static run must not share the adaptive cache entry: %+v", st)
	}

	// A later session replays both passes from disk, including the per-PC
	// table (GateProfile survives the JSON round trip).
	warm := NewSession(Options{Scale: 0.1, CacheDir: dir, Fingerprint: "fp"})
	ad3, err := warm.RunAdaptive("LIB", CfgCtrlTmap, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.CacheStats(); st.Simulated != 0 || st.DiskHits != 2 {
		t.Fatalf("warm adaptive run must be a pure replay: %+v", st)
	}
	if len(ad3.Profile.Stats.PCStats) == 0 {
		t.Error("replayed profile lost its per-PC decision table")
	}
	if ad3.Result.Stats.Cycles != ad.Result.Stats.Cycles {
		t.Errorf("replayed adaptive run differs: %d vs %d cycles",
			ad3.Result.Stats.Cycles, ad.Result.Stats.Cycles)
	}
}

// TestAdaptOptionDefaults: the zero AdaptOptions resolves to the package
// defaults and projects them into the digest-relevant spec.
func TestAdaptOptionDefaults(t *testing.T) {
	o := AdaptOptions{}.withDefaults()
	def := compiler.DefaultRefineParams()
	if o.ProfileFrac != 0.25 || o.Refine != def || o.Iterations != DefaultAdaptIterations {
		t.Fatalf("defaults = %+v", o)
	}
	sp := o.spec()
	if sp.ProfileFrac != 0.25 || sp.DemoteGateRate != def.DemoteGateRate ||
		sp.MinDecisions != def.MinDecisions || sp.Cost != def.Cost ||
		sp.Iterations != DefaultAdaptIterations {
		t.Fatalf("spec projection = %+v", sp)
	}
	// Partially-set refine params get the default cost model: a zero Cost
	// would otherwise reach the simulator and mark with a zero warp size.
	p := AdaptOptions{Refine: compiler.RefineParams{DemoteGateRate: 0.5, MinDecisions: 8}}.withDefaults()
	if p.Refine.Cost != compiler.DefaultCostParams() {
		t.Fatalf("zero Cost must default: %+v", p.Refine)
	}
}

// TestGateAccountingConservation: at quiescence every candidate entry must
// be accounted for exactly once —
//
//	CandidateInstances == OffloadsSent + OffloadsSkipped() + LearnEntries
//
// — and the per-PC decision table must agree with the aggregates, across
// the Fig. 9 policy matrix (plus the ideal configuration) on every
// workload. Before the nodest fix, failed destination dry runs broke this
// identity silently.
func TestGateAccountingConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full NDP policy matrix")
	}
	s := NewSession(Options{Scale: 0.05})
	configs := []ConfigName{CfgNoCtrlBmap, CfgNoCtrlTmap, CfgCtrlBmap, CfgCtrlTmap, CfgIdeal}
	var pairs []Pair
	for _, cfg := range configs {
		for _, abbr := range Abbrs() {
			pairs = append(pairs, Pair{Abbr: abbr, Config: cfg})
		}
	}
	if err := s.Warm(pairs); err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		res, err := s.Run(p.Abbr, p.Config)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if got := st.OffloadsSent + st.OffloadsSkipped() + st.LearnEntries; got != st.CandidateInstances {
			t.Errorf("%s: sent(%d)+skipped(%d)+learn(%d) = %d, candidate instances %d",
				p.Key(), st.OffloadsSent, st.OffloadsSkipped(), st.LearnEntries,
				got, st.CandidateInstances)
		}
		var sent, gated, learn uint64
		for _, pc := range st.PCStats.PCs() {
			g := st.PCStats[pc]
			sent += g.Sent
			gated += g.Gated()
			learn += g.LearnEntries
		}
		if sent != st.OffloadsSent || gated != st.OffloadsSkipped() || learn != st.LearnEntries {
			t.Errorf("%s: per-PC table (sent %d, gated %d, learn %d) disagrees with aggregates (%d, %d, %d)",
				p.Key(), sent, gated, learn,
				st.OffloadsSent, st.OffloadsSkipped(), st.LearnEntries)
		}
	}
}
