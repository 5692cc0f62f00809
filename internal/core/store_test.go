package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// gone reports whether nothing is left at path.
func gone(path string) bool {
	_, err := os.Stat(path)
	return os.IsNotExist(err)
}

// TestRecordStoreContract is the contract the run cache keeps: an absent or
// untrustworthy record is a miss, never an error and never a hit; a dead
// record is removed by the get that proves it dead; only a path that cannot
// be read at all is an error.
func TestRecordStoreContract(t *testing.T) {
	t.Run("cache", testRecordStoreContract)
}

func testRecordStoreContract(t *testing.T) {
	good := &RunResult{Abbr: "SP", Config: CfgBaseline}
	good.Stats.Cycles = 12345
	good.Energy.DRAM = 0.125
	cacheDir := t.TempDir()
	st := NewDiskCache(cacheDir, "fp")
	miss := func(what string, s *DiskCache, key string) {
		t.Helper()
		if rec, ok, err := s.Get(key); rec != nil || ok || err != nil {
			t.Fatalf("%s: get = (%v, %v, %v), want a clean miss", what, rec, ok, err)
		}
		if !gone(s.path(key)) {
			t.Fatalf("%s: the record is still on disk after the miss", what)
		}
	}
	plant := func(key string, data []byte) {
		t.Helper()
		if err := os.WriteFile(st.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	miss("missing dir", st, "k")
	if n, err := st.Sweep(); n != 0 || err != nil {
		t.Fatalf("sweep of a missing dir = (%d, %v)", n, err)
	}

	if err := st.put("k", good); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get("k")
	if err != nil || !ok || !reflect.DeepEqual(got, good) {
		t.Fatalf("round trip = (%+v, %v, %v), want %+v", got, ok, err, good)
	}
	live, err := os.ReadFile(st.path("k"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct{ Fingerprint, Key string }
	if err := json.Unmarshal(live, &env); err != nil || env.Fingerprint != "fp" || env.Key != "k" {
		t.Fatalf("envelope = %+v (%v), want fingerprint fp, key k", env, err)
	}
	miss("absent key", st, "absent")

	// A record copied onto another key's path is not that key's record. The
	// original stays live.
	plant("copy", live)
	miss("wrong key", st, "copy")
	if _, ok, _ := st.Get("k"); !ok {
		t.Fatal("the wrong-key miss took the original record with it")
	}

	// A new build misses on the old build's record and removes it; its own
	// put then leaves exactly one record for the key.
	next := NewDiskCache(cacheDir, "fp-next")
	miss("foreign fingerprint", next, "k")
	if err := next.put("k", good); err != nil {
		t.Fatal(err)
	}
	if n := jsonRecords(t, st.dir); n != 1 {
		t.Fatalf("%d records after the build bump, want exactly 1", n)
	}
	if _, ok, err := next.Get("k"); !ok || err != nil {
		t.Fatalf("the new build's record must replay: ok=%v err=%v", ok, err)
	}

	plant("k", []byte(`{"fingerprint":"fp","key":"k","rec`))
	miss("torn JSON", st, "k")
	plant("k", []byte(`{"fingerprint":"fp","key":"k","record":null}`))
	miss("no payload", st, "k")

	// The v5 layout: fingerprint and payload fields side by side, no key.
	flat := map[string]any{}
	data, _ := json.Marshal(good)
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	flat["fingerprint"] = "fp"
	data, _ = json.Marshal(flat)
	plant("k", data)
	miss("v5-shaped record", st, "k")

	// A path that cannot be read is an error, not a miss, and stays.
	if err := os.Mkdir(st.path("blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Get("blocked"); ok || err == nil {
		t.Fatalf("unreadable path: ok=%v err=%v, want an error", ok, err)
	}
	if n, err := st.Sweep(); n != 0 || err != nil || gone(st.path("blocked")) {
		t.Fatalf("sweep over a directory entry = (%d, %v)", n, err)
	}
}

// TestRecordStoreConcurrentPutGet: writers replacing one key while readers
// load it. Every read is a complete record or a clean miss — never a torn
// one (which get would remove, losing a live record) and never an error.
// Runs under -race in CI.
func TestRecordStoreConcurrentPutGet(t *testing.T) {
	st := NewDiskCache(t.TempDir(), "fp")
	rec := func(i int64) *RunResult {
		r := &RunResult{Abbr: "SP", Config: CfgCtrlTmap}
		r.Stats.Cycles, r.Stats.LearnCycles = i, i
		return r
	}
	const each, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < each; g++ {
		wg.Add(2)
		go func(g int64) {
			defer wg.Done()
			for i := int64(0); i < rounds; i++ {
				if err := st.put("k", rec(g*rounds+i)); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(int64(g))
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, ok, err := st.Get("k")
				if err != nil {
					t.Errorf("get: %v", err)
				} else if ok && !reflect.DeepEqual(got, rec(got.Stats.Cycles)) {
					t.Errorf("get returned a record nobody wrote: %+v", got)
				}
			}
		}()
	}
	wg.Wait()
	if _, ok, err := st.Get("k"); !ok || err != nil {
		t.Errorf("after the writers finished: ok=%v err=%v, want the last record", ok, err)
	}
	if left, _ := filepath.Glob(filepath.Join(st.dir, "put-*.tmp")); len(left) != 0 {
		t.Errorf("writers left temp files behind: %v", left)
	}
}

// FuzzRecordStoreGet: whatever bytes sit at a record's path — they are the
// one input the cache reads that this process may not have written — Get
// answers with a hit or with a miss that removed them, never with a panic or
// an error. The seed corpus is committed under testdata/fuzz, so plain
// `go test` runs it; its mapping-shaped seeds are records of the retired
// mapping registry, which the run cache must survive too.
func FuzzRecordStoreGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st := NewDiskCache(t.TempDir(), "fp")
		if err := os.WriteFile(st.path("k"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, ok, err := st.Get("k")
		switch {
		case err != nil:
			t.Fatalf("get errored on foreign bytes: %v", err)
		case ok != (rec != nil):
			t.Fatalf("ok=%v with record %v", ok, rec)
		case ok == gone(st.path("k")):
			t.Fatalf("hit=%v but record file gone=%v", ok, !ok)
		}
	})
}
