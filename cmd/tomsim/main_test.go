package main

import (
	"bytes"
	"os"
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
	bin := build(t, dir)
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

// TestTraceTakesAFilePath: -trace - once created a file named "-" and left
// stdout to the text report. A trace is binary and goes to a file, so the
// dash is refused before anything is simulated.
func TestTraceTakesAFilePath(t *testing.T) {
	dir := t.TempDir()
	cmd := exec.Command(build(t, dir), "-workload", "LIB", "-scale", "0.1", "-trace", "-")
	cmd.Dir = dir
	var o, e bytes.Buffer
	cmd.Stdout, cmd.Stderr = &o, &e
	if ee, ok := cmd.Run().(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("tomsim -trace -: %v, want exit status 1", cmd.ProcessState)
	}
	if o.Len() != 0 || !strings.HasPrefix(e.String(), "tomsim: ") || !strings.Contains(e.String(), "file path") {
		t.Errorf("stdout %q, stderr %q; want nothing and a tomsim: error naming a file path", o.String(), e.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "-")); !os.IsNotExist(err) {
		t.Error(`-trace - created a file named "-"`)
	}
}

// build compiles tomsim into dir and returns the binary's path.
func build(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "tomsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}
