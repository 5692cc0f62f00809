package tom

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestPublicAPISurface(t *testing.T) {
	ws := Workloads()
	if len(ws) != 10 {
		t.Fatalf("Workloads() = %d, want 10", len(ws))
	}
	if len(WorkloadAbbrs()) != 10 {
		t.Fatalf("WorkloadAbbrs() wrong length")
	}
	if got := len(ExperimentIDs()); got != 14 {
		t.Errorf("ExperimentIDs() = %d, want 14", got)
	}
	cfg := DefaultConfig()
	if cfg.MainSMs != 64 {
		t.Errorf("DefaultConfig does not match Table 1: %+v", cfg)
	}
	base := BaselineConfig()
	if base.MainSMs != 68 {
		t.Errorf("BaselineConfig SMs = %d, want 68", base.MainSMs)
	}
}

func TestRunAndSpeedupSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system simulation")
	}
	r := NewSession(SessionOptions{Scale: 0.1})
	base, err := r.Run("SP", Baseline)
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := r.Run("SP", ControlledBmap)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.Cycles == 0 || ndp.Stats.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if ndp.Stats.OffloadsSent == 0 {
		t.Error("NDP run should offload")
	}
}

func TestAreaExperimentThroughFacade(t *testing.T) {
	tab, err := Experiment("area", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "area" || len(tab.Rows) == 0 {
		t.Errorf("unexpected table: %+v", tab)
	}
	if _, err := Experiment("nope", 0.1); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// printed renders tables exactly as cmd/tomx prints them: one Println each.
func printed(tables ...*Table) string {
	var sb strings.Builder
	for _, t := range tables {
		fmt.Fprintln(&sb, t)
	}
	return sb.String()
}

func golden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestExperimentTablesGolden pins every table of the evaluation, byte for
// byte, at scale 0.03, and with them the traffic of the run that prints them:
// the parallel warm pass simulates every cell a table reads and no other.
// Regenerate the file (after a deliberate model change only) with
//
//	go run ./cmd/tomx -exp all -scale 0.03 -q >testdata/tables_s003.golden
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole evaluation at scale 0.03")
	}
	s := NewSession(SessionOptions{Scale: 0.03})

	// What AllExperiments warms: every registered configuration on the ten
	// workloads, once each. A configuration no table reads would make the
	// two counts differ.
	pairs := core.ExperimentPairs()
	if want := 10 * len(core.AllConfigNames()); len(pairs) != want {
		t.Errorf("the tables read %d (workload, configuration) pairs, want %d: some registered configuration is in no table", len(pairs), want)
	}
	if err := s.Warm(pairs); err != nil {
		t.Fatal(err)
	}
	warmed := s.CacheStats().Simulated
	if warmed != uint64(len(pairs)) {
		t.Errorf("the warm pass simulated %d runs for %d pairs", warmed, len(pairs))
	}
	// Every table must find all it reads already simulated.
	single := map[string]string{}
	ids := ExperimentIDs()
	for _, id := range ids {
		tab, err := s.Experiment(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		single[id] = printed(tab)
		if n := s.CacheStats().Simulated; n != warmed {
			t.Fatalf("%s simulated %d runs the warm pass left cold", id, n-warmed)
		}
	}

	checkStatsGolden(t, s, pairs)
	if n := s.CacheStats().Simulated; n != warmed {
		t.Fatalf("reading the cells' Stats simulated %d runs the warm pass left cold", n-warmed)
	}

	all, err := s.AllExperiments()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := printed(all...), golden(t, "tables_s003.golden"); got != want {
		t.Errorf("tomx -exp all differs from testdata/tables_s003.golden:\n%s", got)
	}
	if len(all) != len(ids) {
		t.Fatalf("AllExperiments returned %d tables for %d ids", len(all), len(ids))
	}
	for i, id := range ids {
		if all[i].ID != id || single[id] != printed(all[i]) {
			t.Errorf("Experiment(%q) differs from table %d (%s) of the all-run", id, i, all[i].ID)
		}
	}
}

// checkStatsGolden pins every cell the tables read, not only what the tables
// print: one line per pair, "ABBR/config" and the compact JSON of the run's
// sim.Stats, read from the session's memo. Each cell's Stats must also keep
// the offload lifecycle conserved (checkConservation). A new Stats field regenerates the
// file on purpose, and its diff shows only the new key. Regenerate (after a
// deliberate model change only) with
//
//	GOLDEN_UPDATE=1 go test . -run TestExperimentTablesGolden
func checkStatsGolden(t *testing.T, s *Session, pairs []core.Pair) {
	t.Helper()
	var sb strings.Builder
	for _, p := range pairs {
		res, err := s.Run(p.Abbr, p.Config)
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		spec, err := s.Spec(p.Abbr, p.Config)
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		checkConservation(t, p.Key(), spec.Cfg.Policy != "none", &res.Stats)
		js, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "%s %s\n", p.Key(), js)
	}
	const name = "stats_s003.golden"
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(filepath.Join("testdata", name), []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := golden(t, name)
	if got := sb.String(); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("testdata/%s line %d differs:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("testdata/%s has %d lines, the cells give %d", name, len(wl), len(gl))
	}
}

// checkConservation holds the offload lifecycle of one cell: with offloading
// on, every candidate entry is sent, skipped for a reason, or consumed by
// the learning phase; with it off, none is. Either way the per-PC decision
// table sums to the aggregate counters.
func checkConservation(t *testing.T, key string, offload bool, st *sim.Stats) {
	t.Helper()
	var sum compiler.GateStats
	for _, g := range st.PCStats {
		sum.Sent += g.Sent
		sum.SkippedCond += g.SkippedCond
		sum.SkippedBusy += g.SkippedBusy
		sum.SkippedFull += g.SkippedFull
		sum.SkippedALU += g.SkippedALU
		sum.SkippedNoDest += g.SkippedNoDest
		sum.SkippedDestBound += g.SkippedDestBound
		sum.SkippedSplit += g.SkippedSplit
		sum.SkippedVaultFull += g.SkippedVaultFull
		sum.LearnEntries += g.LearnEntries
	}
	agg := compiler.GateStats{
		Sent:             st.OffloadsSent,
		SkippedCond:      st.OffloadsSkippedCond,
		SkippedBusy:      st.OffloadsSkippedBusy,
		SkippedFull:      st.OffloadsSkippedFull,
		SkippedALU:       st.OffloadsSkippedALU,
		SkippedNoDest:    st.OffloadsSkippedNoDest,
		SkippedDestBound: st.OffloadsSkippedDestBound,
		SkippedSplit:     st.OffloadsSkippedSplit,
		SkippedVaultFull: st.OffloadsSkippedVaultFull,
		LearnEntries:     st.LearnEntries,
	}
	if sum != agg {
		t.Errorf("%s: the per-PC table sums to %+v, the aggregates are %+v", key, sum, agg)
	}
	want := st.CandidateInstances
	if !offload {
		want = 0 // a baseline cell counts candidates and disposes of none
	}
	if got := st.OffloadsSent + st.OffloadsSkipped() + st.LearnEntries; got != want {
		t.Errorf("%s: %d sent + %d skipped + %d learn = %d of %d candidates, want %d",
			key, st.OffloadsSent, st.OffloadsSkipped(), st.LearnEntries, got, st.CandidateInstances, want)
	}
}

// TestALUGateEarnsItsRow holds the measurement that keeps the tom-alu policy
// and the ctrl-4X-warp+alu row of Figs. 11/12: at 4x stack warp capacity RD is
// ALU-bound on the stack SMs (§6.4), and declining its offloads there must
// recover at least a quarter of its IPC (measured 1.39x at scale 0.5, the
// smallest scale at which the gate binds). No table cell at the golden's
// scale distinguishes the two configurations.
func TestALUGateEarnsItsRow(t *testing.T) {
	if testing.Short() {
		t.Skip("two RD runs at scale 0.5")
	}
	r := NewSession(SessionOptions{Scale: 0.5})
	plain, err := r.Run("RD", core.CfgWarp4x)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := r.Run("RD", core.CfgWarp4xALU)
	if err != nil {
		t.Fatal(err)
	}
	if gated.Stats.OffloadsSkippedALU == 0 {
		t.Error("the ALU gate declined no offload: ctrl-tmap-w4-alu ran as ctrl-tmap-w4")
	}
	if got := gated.Stats.IPC() / plain.Stats.IPC(); got < 1.25 {
		t.Errorf("RD under ctrl-tmap-w4-alu runs at %.3fx its ctrl-tmap-w4 IPC, want >= 1.25x", got)
	}
}
