package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	tom "repro"
)

// runTomx calls tomx in-process and returns its exit status and output.
func runTomx(t *testing.T, stdin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	code = tomx(args, strings.NewReader(stdin), &o, &e)
	return code, o.String(), e.String()
}

// TestStrayArgumentsRefused: Go's flag package stops at the first non-flag
// argument, so a misplaced word used to drop every flag after it — "tomx
// fig8 -scale 0.03" ran all experiments at scale 1.0, "tomx -q -scale 0.03
// fig8" printed all fifteen tables, "run -scale 0.03 BFS" ran LIB. Every
// mode now refuses what it does not take with its usage and exit status 2,
// before anything is simulated.
func TestStrayArgumentsRefused(t *testing.T) {
	for _, args := range [][]string{
		{"fig8"},
		{"fig8", "-scale", "0.03"},
		{"-q", "-scale", "0.03", "fig8"},
		{"-exp", "fig8", "-q", "-scale", "0.03", "-"},
		{"run", "-scale", "0.03", "BFS"},
		{"cc", "-workload", "LIB", "extra.s"},
		{"cc", "a.s", "b.s"},
		{"trace", "a.trace", "b.trace"},
		{"run", "-nope"},
	} {
		code, stdout, stderr := runTomx(t, "", args...)
		if code != 2 {
			t.Errorf("tomx %v: exit status %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("tomx %v: printed before refusing:\n%s", args, stdout)
		}
		if !strings.Contains(stderr, "usage: tomx") {
			t.Errorf("tomx %v: stderr = %q, want the usage", args, stderr)
		}
	}
	if code, _, _ := runTomx(t, "", "run", "-h"); code != 0 {
		t.Errorf("tomx run -h: exit status %d, want 0", code)
	}
}

// TestTraceSampleMustBePositive: -trace-sample 0 is refused in both modes
// that take it, as tomserve refuses ?sample=0, before the trace file is
// created or anything is simulated.
func TestTraceSampleMustBePositive(t *testing.T) {
	dir := t.TempDir()
	for _, args := range [][]string{
		{"run", "-scale", "0.03", "-trace-sample", "0"},
		{"-exp", "fig2", "-scale", "0.03", "-q", "-trace-sample", "0"},
	} {
		file := filepath.Join(dir, "t.bin")
		code, stdout, stderr := runTomx(t, "", append(args, "-trace", file)...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "tomx: -trace-sample") {
			t.Errorf("tomx %v: exit %d, stdout %q, stderr %q; want 1, nothing, a -trace-sample error",
				args, code, stdout, stderr)
		}
		if _, err := os.Stat(file); !os.IsNotExist(err) {
			t.Errorf("tomx %v: created the trace file", args)
		}
	}
}

// TestBadScaleRefused: a scale that is not a positive finite number is an
// error, in tomx before anything runs and in the library where the scale
// first meets a workload. NaN used to panic (the instance memo is keyed by
// the scale, and NaN never equals itself), and 0, -1 and +Inf ran silently
// at the workloads' minimum sizes.
func TestBadScaleRefused(t *testing.T) {
	for _, scale := range []string{"NaN", "0", "-1", "+Inf"} {
		for _, args := range [][]string{
			{"run", "-workload", "SP", "-scale", scale, "-compare=false"},
			{"-exp", "fig2", "-q", "-scale", scale},
		} {
			code, stdout, stderr := runTomx(t, "", args...)
			if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "tomx: -scale") {
				t.Errorf("tomx %v: exit %d, stdout %q, stderr %q; want 1, nothing, a -scale error",
					args, code, stdout, stderr)
			}
		}
		v, err := strconv.ParseFloat(scale, 64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tom.Run("SP", tom.TOM, v); err == nil {
			t.Errorf("tom.Run at scale %v: no error", v)
		}
	}
}

// TestTimelineExportRefusedBeforeSimulating: -metrics/-trace on an experiment
// without a timeline used to simulate the whole experiment, print its table,
// create an empty trace file and only then fail. The refusal must come first:
// exit status 1, the reason on stderr, nothing on stdout, no file left.
func TestTimelineExportRefusedBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"fig5", "fig6", "area", "nope"} {
		for _, flag := range []string{"-metrics", "-trace"} {
			file := filepath.Join(dir, id+flag+".out")
			code, stdout, stderr := runTomx(t, "", "-exp", id, "-scale", "0.03", "-q", flag, file)
			if code != 1 {
				t.Errorf("-exp %s %s: exit status %d, want 1", id, flag, code)
			}
			if stdout != "" {
				t.Errorf("-exp %s %s: printed before refusing:\n%s", id, flag, stdout)
			}
			if !strings.HasPrefix(stderr, "tomx: ") {
				t.Errorf("-exp %s %s: stderr = %q, want a tomx: error", id, flag, stderr)
			}
			if _, err := os.Stat(file); !os.IsNotExist(err) {
				t.Errorf("-exp %s %s: left %s behind", id, flag, file)
			}
		}
	}
}
