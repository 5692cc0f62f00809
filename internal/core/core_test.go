package core

import (
	"testing"
)

// TestConfigRegistry derives from AllConfigNames — the single source of
// declared configurations — so a new config (a policy config included) is
// covered here exactly once with no hardwired list to drift.
func TestConfigRegistry(t *testing.T) {
	names := AllConfigNames()
	seen := map[ConfigName]int{}
	for _, n := range names {
		seen[n]++
		if _, err := buildConfig(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	for n, c := range seen {
		if c != 1 {
			t.Errorf("config %q declared %d times in AllConfigNames", n, c)
		}
	}
	for _, n := range []ConfigName{CfgCoda, CfgMPU} {
		if seen[n] != 1 {
			t.Errorf("policy config %q must appear exactly once, saw %d", n, seen[n])
		}
	}
	if _, err := buildConfig("bogus"); err == nil {
		t.Error("unknown config should fail")
	}
}

// TestPolicyDigestDistinct: runs of different offload policies must never
// share a cache record — the digest folds the policy name and parameters on
// top of the canonical config string.
func TestPolicyDigestDistinct(t *testing.T) {
	digests := map[string]ConfigName{}
	for _, name := range []ConfigName{CfgCtrlTmap, CfgIdeal, CfgCoda, CfgMPU} {
		sp, err := NewRunSpec("SP", 0.03, name)
		if err != nil {
			t.Fatal(err)
		}
		d := sp.Digest()
		if prev, dup := digests[d]; dup {
			t.Errorf("configs %s and %s share digest %.12s", prev, name, d)
		}
		digests[d] = name
	}
	// Same config twice must still digest identically (cache hits work).
	a, _ := NewRunSpec("SP", 0.03, CfgCoda)
	b, _ := NewRunSpec("SP", 0.03, CfgCoda)
	if a.Digest() != b.Digest() {
		t.Error("identical specs digest differently")
	}
}

func TestRunnerVerifiesAndCaches(t *testing.T) {
	r := NewSession(Options{Scale: 0.3})
	a, err := r.Run("SP", CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("SP", CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second run should come from the cache")
	}
	if st := r.CacheStats(); st != (CacheStats{MemoHits: 1, Simulated: 1}) {
		t.Errorf("cache stats = %+v, want one run simulated and one memo hit", st)
	}
	ndp, err := r.Run("SP", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	if ndp.Stats.OffloadsSent == 0 {
		t.Error("ctrl-tmap run never offloaded")
	}
	if ndp.Energy.Total() <= 0 {
		t.Error("energy not computed")
	}
}

func TestSpeedupShapeOnStreamingWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-config simulation")
	}
	r := NewSession(Options{Scale: 0.3})
	base, err := r.Run("SP", CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := r.Run("SP", CfgIdeal)
	if err != nil {
		t.Fatal(err)
	}
	tom, err := r.Run("SP", CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	sIdeal := ideal.Stats.IPC() / base.Stats.IPC()
	sTom := tom.Stats.IPC() / base.Stats.IPC()
	t.Logf("SP: ideal=%.2fx tom=%.2fx", sIdeal, sTom)
	if sIdeal <= 1.0 {
		t.Errorf("ideal NDP should speed up SP, got %.2fx", sIdeal)
	}
	if sTom <= 0.9 {
		t.Errorf("TOM should not cripple SP, got %.2fx", sTom)
	}
}

func TestAreaMatchesPaper(t *testing.T) {
	tab, err := NewSession(Options{Scale: 0.03}).Experiment("area")
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) float64 {
		for _, r := range tab.Rows {
			if r.Label == label {
				return r.Values[0]
			}
		}
		t.Fatalf("row %q missing", label)
		return 0
	}
	if v := get("analyzer bits/SM"); v != 1920 {
		t.Errorf("analyzer bits = %v, want 1920", v)
	}
	if v := get("alloc table bits"); v != 9700 {
		t.Errorf("alloc table bits = %v, want 9700", v)
	}
	if v := get("metadata bits/SM"); v != 10320 {
		t.Errorf("metadata bits = %v, want 10320", v)
	}
	if v := get("area mm^2"); v < 0.10 || v > 0.12 {
		t.Errorf("area = %v mm^2, want ~0.11", v)
	}
	if v := get("GPU fraction %"); v < 0.015 || v > 0.021 {
		t.Errorf("GPU fraction = %v%%, want ~0.018%%", v)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "t", Columns: []string{"A", "AVG"},
		Rows:  []Row{{Label: "r", Values: []float64{1, 1}}},
		Notes: []string{"n"},
	}
	if s := tab.String(); s == "" {
		t.Error("empty text rendering")
	}
	if s := tab.Markdown(); s == "" {
		t.Error("empty markdown rendering")
	}
	if GeoMean([]float64{2, 8}) != 4 {
		t.Error("geomean wrong")
	}
	if Mean([]float64{2, 8}) != 5 {
		t.Error("mean wrong")
	}
	if GeoMean(nil) != 0 || Mean(nil) != 0 {
		t.Error("empty reducers should return 0")
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
