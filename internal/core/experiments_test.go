package core

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestExperimentRegistry: the table is the only list of experiments, so its
// shape is pinned here — ids distinct and in paper order, every entry able to
// produce rows, and every configuration a table names a registered one.
func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig2", "fig3", "fig5", "fig6", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "xstack", "coherence", "policies", "area"}
	if got := ExperimentIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("ExperimentIDs() = %v, want %v", got, want)
	}
	seen := map[string]bool{}
	for i := range experiments {
		e := &experiments[i]
		if seen[e.id] {
			t.Errorf("duplicate experiment id %q", e.id)
		}
		seen[e.id] = true
		if e.title == "" {
			t.Errorf("%s: no title", e.id)
		}
		if len(e.groups) == 0 && e.build == nil {
			t.Errorf("%s: neither row groups nor a build function", e.id)
		}
		for _, g := range e.groups {
			if len(g.cfgs) == 0 || len(g.metrics) == 0 {
				t.Errorf("%s: a row group without configurations or metrics", e.id)
			}
		}
		for _, cfg := range e.configs() {
			if _, err := buildConfig(cfg); err != nil {
				t.Errorf("%s: %v", e.id, err)
			}
		}
	}
	pairs := map[Pair]bool{}
	for _, p := range ExperimentPairs() {
		if pairs[p] {
			t.Errorf("ExperimentPairs repeats %s", p.Key())
		}
		pairs[p] = true
	}
}

// TestExperimentRunsItsPairsOnce: a single experiment simulates the cells its
// row groups read, each once — fig2 is ten workloads under the baseline and
// ideal — however many rows read each cell.
func TestExperimentRunsItsPairsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates fig2 at scale 0.03")
	}
	e, err := experimentByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairsOf(e.configs())
	if len(pairs) != 20 {
		t.Errorf("fig2 reads %d pairs, want 20", len(pairs))
	}
	s := NewSession(Options{Scale: 0.03})
	if _, err := s.Experiment("fig2"); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Simulated; got != uint64(len(pairs)) {
		t.Errorf("Experiment(fig2) simulated %d runs, want %d", got, len(pairs))
	}
}

// TestTablesDoNotDependOnPairOrder: runPairs hands a table its cells in a map
// filled in completion order, and the order the pairs are submitted in must
// not show either. fig2's pairs reversed, and in one seeded shuffle, each on
// a fresh session, render fig2's block of tables_s003.golden byte for byte.
func TestTablesDoNotDependOnPairOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates fig2 twice at scale 0.03")
	}
	e, err := experimentByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/tables_s003.golden")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(golden), "== fig2:")
	end := strings.Index(string(golden[start:]), "\n== ")
	if start < 0 || end < 0 {
		t.Fatal("tables_s003.golden has no fig2 block followed by another")
	}
	want := string(golden[start : start+end+1])

	reversed := pairsOf(e.configs())
	slices.Reverse(reversed)
	shuffled := pairsOf(e.configs())
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for name, pairs := range map[string][]Pair{"reversed": reversed, "shuffled": shuffled} {
		s := NewSession(Options{Scale: 0.03})
		res, err := s.runPairs(pairs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tab, err := e.table(s, res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintln(tab); got != want {
			t.Errorf("fig2 from %s pairs differs from tables_s003.golden:\n%s\nwant\n%s", name, got, want)
		}
	}
}

// timelineWant is the configuration set each experiment's timeline reran
// (beside the baseline) when that was a hand-written switch; ids absent from
// it had no timeline. The registry must derive the same sets.
var timelineWant = map[string][]ConfigName{
	"fig2":      {CfgIdeal},
	"fig3":      {CfgCtrlBmap, CfgCtrlOracle, CfgCtrlTmap, CfgCtrlTmapPreset},
	"fig8":      {CfgNoCtrlBmap, CfgNoCtrlTmap, CfgCtrlBmap, CfgCtrlTmap},
	"fig9":      {CfgNoCtrlBmap, CfgNoCtrlTmap, CfgCtrlBmap, CfgCtrlTmap},
	"fig10":     {CfgNoCtrlBmap, CfgNoCtrlTmap, CfgCtrlBmap, CfgCtrlTmap},
	"fig11":     {CfgNoCtrlTmap, CfgCtrlTmap, CfgWarp2x, CfgWarp4x, CfgWarp4xALU},
	"fig12":     {CfgNoCtrlTmap, CfgCtrlTmap, CfgWarp2x, CfgWarp4x, CfgWarp4xALU},
	"fig13":     {CfgCtrlTmap, CfgInternal1x},
	"xstack":    {CfgCross0125, CfgCross025, CfgCtrlTmap, CfgCross100},
	"coherence": {CfgCtrlTmap, CfgNoCoherence},
	"policies":  {CfgCtrlTmap, CfgIdeal, CfgCoda, CfgMPU},
}

func sortedConfigs(cfgs []ConfigName) []string {
	out := make([]string, len(cfgs))
	for i, c := range cfgs {
		out[i] = string(c)
	}
	sort.Strings(out)
	return out
}

// TestTimelineRunSet: Timeline accepts exactly the experiments it used to
// and reruns the same (workload, configuration) set — the baseline once,
// first, then the experiment's own configurations, each once.
func TestTimelineRunSet(t *testing.T) {
	for _, id := range append(ExperimentIDs(), "nope") {
		got, err := TimelineConfigs(id)
		want, ok := timelineWant[id]
		if !ok {
			if err == nil {
				t.Errorf("%s: has a timeline of %v, want an error", id, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if got[0] != CfgBaseline {
			t.Errorf("%s: timeline starts with %s, want the baseline", id, got[0])
		}
		if g, w := sortedConfigs(got), sortedConfigs(append([]ConfigName{CfgBaseline}, want...)); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: timeline reruns %v, want %v", id, g, w)
		}
	}
	if testing.Short() {
		return
	}
	snaps, err := NewSession(Options{Scale: 0.03}).Timeline("fig2", 0, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys, wantKeys []string
	for k := range snaps {
		keys = append(keys, k)
	}
	for _, cfg := range []ConfigName{CfgBaseline, CfgIdeal} {
		for _, abbr := range Abbrs() {
			wantKeys = append(wantKeys, Pair{Abbr: abbr, Config: cfg}.Key())
		}
	}
	sort.Strings(keys)
	sort.Strings(wantKeys)
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("Timeline(fig2) reran %v, want %v", keys, wantKeys)
	}
}
