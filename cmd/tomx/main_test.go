package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTimelineExportRefusedBeforeSimulating: -metrics/-trace on an experiment
// without a timeline used to simulate the whole experiment, print its table,
// create an empty trace file and only then fail. The refusal must come first:
// exit status 1, the reason on stderr, nothing on stdout, no file left.
func TestTimelineExportRefusedBeforeSimulating(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "tomx")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, id := range []string{"fig5", "fig6", "area", "nope"} {
		for _, flag := range []string{"-metrics", "-trace"} {
			file := filepath.Join(dir, id+flag+".out")
			cmd := exec.Command(bin, "-exp", id, "-scale", "0.03", "-q", flag, file)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Errorf("-exp %s %s: err = %v, want exit status 1", id, flag, err)
			}
			if stdout.Len() != 0 {
				t.Errorf("-exp %s %s: printed before refusing:\n%s", id, flag, stdout.String())
			}
			if !strings.HasPrefix(stderr.String(), "tomx: ") {
				t.Errorf("-exp %s %s: stderr = %q, want a tomx: error", id, flag, stderr.String())
			}
			if _, err := os.Stat(file); !os.IsNotExist(err) {
				t.Errorf("-exp %s %s: left %s behind", id, flag, file)
			}
		}
	}
}
