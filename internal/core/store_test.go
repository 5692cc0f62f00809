package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// storeCase is one typed store put through TestRecordStoreContract.
type storeCase[T any] struct {
	open func(cacheDir, fingerprint string) *recordStore[T]
	good *T
	// invalid are well-formed records the kind's own gate must reject.
	invalid map[string]*T
}

// gone reports whether nothing is left at path.
func gone(path string) bool {
	_, err := os.Stat(path)
	return os.IsNotExist(err)
}

// run is the contract every record store keeps, whatever it holds: an absent
// or untrustworthy record is a miss, never an error and never a hit; a dead
// record is removed by the get that proves it dead; only a path that cannot
// be read at all is an error.
func (c storeCase[T]) run(t *testing.T) {
	cacheDir := t.TempDir()
	st := c.open(cacheDir, "fp")
	miss := func(what string, s *recordStore[T], key string) {
		t.Helper()
		if rec, ok, err := s.get(key); rec != nil || ok || err != nil {
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
	if n, err := st.sweep(); n != 0 || err != nil {
		t.Fatalf("sweep of a missing dir = (%d, %v)", n, err)
	}

	if err := st.put("k", c.good); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.get("k")
	if err != nil || !ok || !reflect.DeepEqual(got, c.good) {
		t.Fatalf("round trip = (%+v, %v, %v), want %+v", got, ok, err, c.good)
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
	if _, ok, _ := st.get("k"); !ok {
		t.Fatal("the wrong-key miss took the original record with it")
	}

	// A new build misses on the old build's record and removes it; its own
	// put then leaves exactly one record for the key.
	next := c.open(cacheDir, "fp-next")
	miss("foreign fingerprint", next, "k")
	if err := next.put("k", c.good); err != nil {
		t.Fatal(err)
	}
	if n := jsonRecords(t, st.dir); n != 1 {
		t.Fatalf("%d records after the build bump, want exactly 1", n)
	}
	if _, ok, err := next.get("k"); !ok || err != nil {
		t.Fatalf("the new build's record must replay: ok=%v err=%v", ok, err)
	}

	plant("k", []byte(`{"fingerprint":"fp","key":"k","rec`))
	miss("torn JSON", st, "k")
	plant("k", []byte(`{"fingerprint":"fp","key":"k","record":null}`))
	miss("no payload", st, "k")

	// The v5 layout: fingerprint and payload fields side by side, no key.
	flat := map[string]any{}
	data, _ := json.Marshal(c.good)
	if err := json.Unmarshal(data, &flat); err != nil {
		t.Fatal(err)
	}
	flat["fingerprint"] = "fp"
	data, _ = json.Marshal(flat)
	plant("k", data)
	miss("v5-shaped record", st, "k")

	for what, rec := range c.invalid {
		if err := st.put("k", rec); err != nil {
			t.Fatal(err)
		}
		miss(what, st, "k")
	}

	// A path that cannot be read is an error, not a miss, and stays.
	if err := os.Mkdir(st.path("blocked"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.get("blocked"); ok || err == nil {
		t.Fatalf("unreadable path: ok=%v err=%v, want an error", ok, err)
	}
	if n, err := st.sweep(); n != 0 || err != nil || gone(st.path("blocked")) {
		t.Fatalf("sweep over a directory entry = (%d, %v)", n, err)
	}
}

// TestRecordStoreContract runs the one store contract over the two typed
// stores, plus each kind's own gate.
func TestRecordStoreContract(t *testing.T) {
	result := &RunResult{Abbr: "SP", Config: CfgBaseline}
	result.Stats.Cycles = 12345
	result.Energy.DRAM = 0.125
	t.Run("cache", storeCase[RunResult]{
		open: func(dir, fp string) *recordStore[RunResult] { return NewDiskCache(dir, fp).recordStore },
		good: result,
	}.run)

	t.Run("mapping", storeCase[MappingRecord]{
		open: newMappingStore,
		good: &MappingRecord{Workload: "SP", Scale: 0.1, Structure: "s", Bit: 9, Ranges: []string{"a"}},
		invalid: map[string]*MappingRecord{
			"out-of-range bit": {Bit: 99, Ranges: []string{"a"}},
			"empty range list": {Bit: 9},
		},
	}.run)
}

// TestRecordStoreConcurrentPutGet: writers replacing one key while readers
// load it. Every read is a complete record or a clean miss — never a torn
// one (which get would remove, losing a live record) and never an error.
// Runs under -race in CI.
func TestRecordStoreConcurrentPutGet(t *testing.T) {
	st := newMappingStore(t.TempDir(), "fp")
	rec := func(i int) *MappingRecord {
		return &MappingRecord{Workload: "SP", Bit: 9, Ranges: []string{"a", "b"}, LearnInstances: i, LearnCycles: int64(i)}
	}
	const each, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < each; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := st.put("k", rec(g*rounds+i)); err != nil {
					t.Errorf("put: %v", err)
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				got, ok, err := st.get("k")
				if err != nil {
					t.Errorf("get: %v", err)
				} else if ok && !reflect.DeepEqual(got, rec(got.LearnInstances)) {
					t.Errorf("get returned a record nobody wrote: %+v", got)
				}
			}
		}()
	}
	wg.Wait()
	if _, ok, err := st.get("k"); !ok || err != nil {
		t.Errorf("after the writers finished: ok=%v err=%v, want the last record", ok, err)
	}
	if left, _ := filepath.Glob(filepath.Join(st.dir, "put-*.tmp")); len(left) != 0 {
		t.Errorf("writers left temp files behind: %v", left)
	}
}

// FuzzRecordStoreGet: whatever bytes sit at a record's path — they are the
// one input the stores read that this process may not have written — get
// answers with a hit or with a miss that removed them, never with a panic or
// an error. The seed corpus is committed under testdata/fuzz, so plain
// `go test` runs it.
func FuzzRecordStoreGet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		fuzzGet(t, NewDiskCache(dir, "fp").recordStore, data)
		fuzzGet(t, newMappingStore(dir, "fp"), data)
	})
}

func fuzzGet[T any](t *testing.T, st *recordStore[T], data []byte) {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("k"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, ok, err := st.get("k")
	switch {
	case err != nil:
		t.Fatalf("%s: get errored on foreign bytes: %v", st.kind, err)
	case ok != (rec != nil):
		t.Fatalf("%s: ok=%v with record %v", st.kind, ok, rec)
	case ok == gone(st.path("k")):
		t.Fatalf("%s: hit=%v but record file gone=%v", st.kind, ok, !ok)
	}
}
