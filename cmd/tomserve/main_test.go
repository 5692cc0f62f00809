package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs the command itself when a test re-executes the test binary
// with TOMSERVE_RUN_MAIN set, so flag handling is tested as a process.
func TestMain(m *testing.M) {
	if os.Getenv("TOMSERVE_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadScaleExitsBeforeListening: a default -scale that is not a positive
// finite number up to maxScale makes tomserve exit non-zero on its own, with
// the reason on stderr, before it listens. (A server that took -scale NaN
// failed every run that named no scale, and its replies could not be
// encoded; -scale 0 and -1 silently served at 1.0.)
func TestBadScaleExitsBeforeListening(t *testing.T) {
	for _, scale := range []string{"NaN", "0", "-1", "Inf", "-Inf", "9"} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-cache-dir", "", "-scale", scale)
		cmd.Env = append(os.Environ(), "TOMSERVE_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		switch {
		case timedOut:
			t.Errorf("-scale %s: still running after 10 s (stderr %q)", scale, stderr.String())
		case err == nil:
			t.Errorf("-scale %s: exited 0 (stderr %q)", scale, stderr.String())
		case strings.Contains(stderr.String(), "listening"):
			t.Errorf("-scale %s: listened before exiting (stderr %q)", scale, stderr.String())
		case !strings.Contains(stderr.String(), "-scale"):
			t.Errorf("-scale %s: stderr %q does not name the flag", scale, stderr.String())
		}
	}
}

// TestParseFlagsAcceptsScales: the bounds are inclusive of maxScale, and a
// small positive scale passes.
func TestParseFlagsAcceptsScales(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want float64
	}{
		{nil, 1.0},
		{[]string{"-scale", "0.03"}, 0.03},
		{[]string{"-scale", "8"}, maxScale},
	} {
		_, opts, err := parseFlags(tc.args)
		if err != nil {
			t.Errorf("%q: %v", tc.args, err)
		} else if opts.scale != tc.want {
			t.Errorf("%q: scale %v, want %v", tc.args, opts.scale, tc.want)
		}
	}
}
