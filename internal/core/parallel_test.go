package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestAllConfigNamesBuildAndAreUnique: every declared name must materialize
// a config (so AllConfigNames and buildConfig cannot drift apart) and names
// must be distinct.
func TestAllConfigNamesBuildAndAreUnique(t *testing.T) {
	seen := map[ConfigName]bool{}
	for _, n := range AllConfigNames() {
		if seen[n] {
			t.Errorf("duplicate config name %q", n)
		}
		seen[n] = true
		if _, err := buildConfig(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if !seen[CfgWarp4xALU] {
		t.Error("AllConfigNames must include the ALU-gate ablation")
	}
}

// TestWarmReportsEveryFailure: a multi-workload failure must surface every
// failing (workload, config) pair, not just the first, each labelled with
// its key, and name no pair that ran.
func TestWarmReportsEveryFailure(t *testing.T) {
	r := NewSession(Options{Scale: 0.03})
	pairs := []Pair{
		{Abbr: "NOPE1", Config: CfgBaseline},
		{Abbr: "SP", Config: CfgBaseline},
		{Abbr: "NOPE2", Config: CfgBaseline},
		{Abbr: "NOPE3", Config: "bogus-config"},
	}
	err := r.Warm(pairs)
	if err == nil {
		t.Fatal("Warm with unknown workloads must fail")
	}
	msg := err.Error()
	for _, want := range []string{"NOPE1/baseline:", "NOPE2/baseline:", "NOPE3/bogus-config:"} {
		if !strings.Contains(msg, want) {
			t.Errorf("aggregated error misses %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "SP/") {
		t.Errorf("aggregated error names a pair that ran:\n%s", msg)
	}
}

// TestRunObserved: an observed run must produce the same verified stats as
// a plain run and a metrics snapshot whose totals match.
func TestRunObserved(t *testing.T) {
	r := NewSession(Options{Scale: 0.05})
	o := obs.New()
	o.SampleEvery = 512
	res, err := r.RunObserved("LIB", CfgCtrlBmap, o)
	if err != nil {
		t.Fatal(err)
	}
	snap := o.Registry.Snapshot()
	if got := snap.Counters["offload.sent"]; got != res.Stats.OffloadsSent {
		t.Errorf("observed sent = %d, stats say %d", got, res.Stats.OffloadsSent)
	}
	sum := func(name string) uint64 {
		s := snap.Series[name]
		t := 0.0
		for _, v := range s.Values {
			t += v
		}
		return uint64(t + 0.5)
	}
	if got := sum("traffic.gpu_tx_bytes"); got != res.Stats.GPUTXBytes {
		t.Errorf("tx series = %d, stats say %d", got, res.Stats.GPUTXBytes)
	}
	if got := sum("traffic.gpu_rx_bytes"); got != res.Stats.GPURXBytes {
		t.Errorf("rx series = %d, stats say %d", got, res.Stats.GPURXBytes)
	}
	// Observed runs are not memoized.
	if len(r.CachedRuns()) != 0 {
		t.Errorf("RunObserved must not populate the cache: %v", r.CachedRuns())
	}
	// nil observer falls back to the cached path.
	if _, err := r.RunObserved("LIB", CfgCtrlBmap, nil); err != nil {
		t.Fatal(err)
	}
	if len(r.CachedRuns()) != 1 {
		t.Errorf("nil-observer run should memoize: %v", r.CachedRuns())
	}
}
