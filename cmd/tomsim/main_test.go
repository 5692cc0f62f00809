package main

import (
	"bytes"
	"os/exec"
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
		t.Skip("builds the binary and simulates LIB at scale 0.1")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tomsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func() (stdout, stderr string) {
		t.Helper()
		cmd := exec.Command(bin, "-workload", "LIB", "-config", "ctrl-tmap", "-scale", "0.1",
			"-compare=false", "-cache", "-cache-dir", filepath.Join(dir, "cache"))
		var o, e bytes.Buffer
		cmd.Stdout, cmd.Stderr = &o, &e
		if err := cmd.Run(); err != nil {
			t.Fatalf("tomsim: %v\n%s", err, e.String())
		}
		return o.String(), e.String()
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
