package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// jsonRecords counts .json files directly under dir.
func jsonRecords(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			n++
		}
	}
	return n
}

// TestDiskCacheSweep: startup GC removes exactly what this build can never
// replay — foreign fingerprints, torn JSON, and writers' temp files old
// enough to be abandoned — and leaves live records, young temp files,
// foreign files and every subdirectory alone (an older build's feedback/
// and mappings/ among them: dead weight, but not this build's to delete).
func TestDiskCacheSweep(t *testing.T) {
	dir := t.TempDir()
	specA, _ := NewRunSpec("SP", 0.25, CfgBaseline)
	specB, _ := NewRunSpec("LIB", 0.25, CfgBaseline)
	res := &RunResult{Abbr: "SP", Config: CfgBaseline}
	write := func(path, data string) string {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	if err := NewDiskCache(dir, "build-old").Put(specA, res); err != nil {
		t.Fatal(err)
	}
	cur := NewDiskCache(dir, "build-new")
	if err := cur.Put(specB, res); err != nil {
		t.Fatal(err)
	}
	dead := []string{
		write(filepath.Join(dir, "junk.json"), "{torn"),
		write(filepath.Join(dir, "put-1.tmp"), "{half a rec"),
	}
	old := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(dead[1], old, old); err != nil {
		t.Fatal(err)
	}
	kept := []string{
		write(filepath.Join(dir, "put-2.tmp"), "{a concurrent writer's"),
		write(filepath.Join(dir, "README"), "not a record"),
		write(filepath.Join(dir, "feedback", "x.json"), "{torn"),
		write(filepath.Join(dir, "mappings", "x.json"), "{torn"),
	}

	removed, err := cur.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Errorf("swept %d files, want 3 (stale + dead record + abandoned temp)", removed)
	}
	if n := jsonRecords(t, dir); n != 1 {
		t.Errorf("%d run records remain, want 1 (the fresh one)", n)
	}
	if _, ok, err := cur.Get(specB.Digest()); !ok || err != nil {
		t.Errorf("fresh record must survive the sweep: ok=%v err=%v", ok, err)
	}
	for _, p := range dead {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived the sweep (stat: %v)", p, err)
		}
	}
	for _, p := range kept {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("sweep must leave %s alone: %v", p, err)
		}
	}

	// Sweeping a cache directory that does not exist yet is a no-op.
	if n, err := NewDiskCache(filepath.Join(dir, "nope"), "x").Sweep(); n != 0 || err != nil {
		t.Errorf("sweep of a missing dir: n=%d err=%v", n, err)
	}
}
