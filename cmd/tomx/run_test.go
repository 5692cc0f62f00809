package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGateTablePrintedForSimulatedAndReplayedRuns: the per-PC gate table is a
// diagnostic of every run that made offload decisions, not of a mode — it
// follows the offloads line whether the run was simulated or replayed from
// the cache, line for line the same.
func TestGateTablePrintedForSimulatedAndReplayedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates LIB at scale 0.1")
	}
	cache := filepath.Join(t.TempDir(), "cache")
	run := func() (stdout, stderr string) {
		t.Helper()
		code, o, e := runTomx(t, "", "run", "-workload", "LIB", "-config", "ctrl-tmap", "-scale", "0.1",
			"-compare=false", "-cache", "-cache-dir", cache)
		if code != 0 {
			t.Fatalf("tomx run: exit status %d\n%s", code, e)
		}
		return o, e
	}
	cold, coldErr := run()
	warm, warmErr := run()
	if !strings.Contains(coldErr, "hits=0 simulated=1\n") || !strings.Contains(warmErr, "hits=1 simulated=0\n") {
		t.Fatalf("want one simulation, then one replay:\ncold: %swarm: %s", coldErr, warmErr)
	}
	if cold != warm {
		t.Errorf("the replayed run prints differently:\ncold:\n%swarm:\n%s", cold, warm)
	}
	// LIB has two candidates (pc 3, pc 14); both reach decisions at 0.1.
	table := regexp.MustCompile(`(?m)^offloads .*\n( +pc \d+ +gated +[\d.]+% \(\d+/\d+ decisions, mean trips \d+\)\n){2}caches `)
	if !table.MatchString(warm) {
		t.Errorf("no per-PC gate table after the offloads line:\n%s", warm)
	}
}

// TestTraceTakesAFilePath: -trace - once created a file named "-" and left
// stdout to the text report. A trace is binary and goes to a file, so the
// dash is refused before anything is simulated.
func TestTraceTakesAFilePath(t *testing.T) {
	code, stdout, stderr := runTomx(t, "", "run", "-workload", "LIB", "-scale", "0.1", "-trace", "-")
	if code != 1 {
		t.Fatalf("tomx run -trace -: exit status %d, want 1", code)
	}
	if stdout != "" || !strings.HasPrefix(stderr, "tomx: ") || !strings.Contains(stderr, "file path") {
		t.Errorf("stdout %q, stderr %q; want nothing and a tomx: error naming a file path", stdout, stderr)
	}
	if _, err := os.Stat("-"); !os.IsNotExist(err) {
		os.Remove("-")
		t.Error(`-trace - created a file named "-"`)
	}
}
