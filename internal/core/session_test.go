package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// TestRunSpecDigestStability: digests must be deterministic, distinguish
// every axis of the spec (workload, scale, config name, resolved simulator
// parameters), and ignore runtime-only attachments.
func TestRunSpecDigestStability(t *testing.T) {
	sp, err := NewRunSpec("SP", 0.3, CfgCtrlTmap)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Digest() != sp.Digest() {
		t.Fatal("digest is not deterministic")
	}
	again, _ := NewRunSpec("SP", 0.3, CfgCtrlTmap)
	if sp.Digest() != again.Digest() {
		t.Fatal("identical specs must digest identically")
	}
	if sp.Key() != "SP/ctrl-tmap" {
		t.Errorf("key = %q", sp.Key())
	}

	diff := []RunSpec{}
	for _, mk := range []func() (RunSpec, error){
		func() (RunSpec, error) { return NewRunSpec("BFS", 0.3, CfgCtrlTmap) }, // workload
		func() (RunSpec, error) { return NewRunSpec("SP", 0.31, CfgCtrlTmap) }, // scale
		func() (RunSpec, error) { return NewRunSpec("SP", 0.3, CfgCtrlBmap) },  // config name
		func() (RunSpec, error) { // resolved sim.Config field flipped directly
			s, err := NewRunSpec("SP", 0.3, CfgCtrlTmap)
			s.Cfg.L2Lat++
			return s, err
		},
	} {
		d, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		diff = append(diff, d)
	}
	seen := map[string]string{sp.Digest(): sp.Key()}
	for _, d := range diff {
		dg := d.Digest()
		if prev, dup := seen[dg]; dup {
			t.Errorf("digest collision between %s and %s", prev, d.Key())
		}
		seen[dg] = d.Key()
	}

	if _, err := NewRunSpec("SP", 0.3, "bogus"); err == nil {
		t.Error("unknown config must not produce a spec")
	}
	// Persisted records are keyed by this digest: it may not move without a
	// cache schema bump.
	if got, want := sp.Digest(), "919263452876058978bcf5d1575632a58e39d5bec6b2443e0a7e20ed17263362"; got != want {
		t.Errorf("SP/ctrl-tmap @ 0.3 digest = %s, want %s", got, want)
	}
}

// fmtCanonical is the rendering sim.Config.Canonical has always produced,
// "Name=%v;" per field through fmt: the oracle its faster form must match
// byte for byte, or every persisted digest moves.
func fmtCanonical(c sim.Config) string {
	var sb strings.Builder
	v := reflect.ValueOf(c)
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.Kind() {
		case reflect.Pointer, reflect.Func, reflect.Interface, reflect.Chan:
			continue
		}
		fmt.Fprintf(&sb, "%s=%v;", typ.Field(i).Name, v.Field(i).Interface())
	}
	return sb.String()
}

// TestCanonicalMatchesFmt: Canonical spells every registered configuration,
// a hand-built one and awkward floats exactly as fmt's %v does.
func TestCanonicalMatchesFmt(t *testing.T) {
	var cfgs []sim.Config
	for _, name := range AllConfigNames() {
		c, err := buildConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, c)
	}
	c := sim.DefaultConfig()
	c.Policy = "coda"
	c.GPUStackBW, c.PCIeBW = 57.14, 1e21
	c.MaxCycles = -1
	cfgs = append(cfgs, c)
	for _, c := range cfgs {
		if got, want := c.Canonical(), fmtCanonical(c); got != want {
			t.Errorf("Canonical() =\n%s\nwant\n%s", got, want)
		}
	}
}

// TestDiskCacheRoundTrip: put/get round-trips the exact result; missing
// digests, corrupt records, and foreign fingerprints miss without error.
func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewDiskCache(dir, "fp-A")
	spec, _ := NewRunSpec("SP", 0.25, CfgBaseline)
	res := &RunResult{Abbr: "SP", Config: CfgBaseline}
	res.Stats.Cycles = 12345
	res.Stats.OffloadsSent = 7
	res.Energy.DRAM = 0.125

	if _, ok, err := c.Get(spec.Digest()); ok || err != nil {
		t.Fatalf("empty cache: ok=%v err=%v", ok, err)
	}
	if err := c.Put(spec, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(spec.Digest())
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("round trip mutated the result: %+v vs %+v", got, res)
	}

	// A different fingerprint must self-invalidate the record.
	stale := NewDiskCache(dir, "fp-B")
	if _, ok, _ := stale.Get(spec.Digest()); ok {
		t.Error("fingerprint mismatch must be a miss")
	}

	// A corrupt record degrades to a miss, not an error.
	if err := os.WriteFile(filepath.Join(dir, spec.Digest()+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(spec.Digest()); ok || err != nil {
		t.Errorf("corrupt record: ok=%v err=%v", ok, err)
	}
}

// TestSessionColdThenWarm is the acceptance test for the persistent layer:
// a second session over the same cache directory replays every run without
// simulating, results are identical, and flipping either the build
// fingerprint or any simulator parameter forces a fresh simulation.
func TestSessionColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	const scale = 0.05

	cold := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-1"})
	a, err := cold.Run("LIB", CfgCtrlBmap)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.Simulated != 1 || st.DiskHits != 0 {
		t.Fatalf("cold session stats = %+v", st)
	}
	// Same session, same spec: in-memory memo.
	if _, err := cold.Run("LIB", CfgCtrlBmap); err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.MemoHits != 1 {
		t.Fatalf("memo layer missed: %+v", st)
	}

	warm := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-1"})
	b, err := warm.Run("LIB", CfgCtrlBmap)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.CacheStats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Fatalf("warm session must replay from disk: %+v", st)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replayed result differs:\ncold %+v\nwarm %+v", a, b)
	}

	// A new build fingerprint invalidates every record.
	rebuilt := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "build-2"})
	if _, err := rebuilt.Run("LIB", CfgCtrlBmap); err != nil {
		t.Fatal(err)
	}
	if st := rebuilt.CacheStats(); st.Simulated != 1 || st.DiskHits != 0 {
		t.Fatalf("stale fingerprint must simulate: %+v", st)
	}

	// A different scale is a different spec — no false sharing.
	rescaled := NewSession(Options{Scale: scale * 2, CacheDir: dir, Fingerprint: "build-1"})
	if _, err := rescaled.Run("LIB", CfgCtrlBmap); err != nil {
		t.Fatal(err)
	}
	if st := rescaled.CacheStats(); st.Simulated != 1 {
		t.Fatalf("different scale must miss: %+v", st)
	}

	// Cache files are keyed by digest.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := 0
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".json") {
			names++
		}
	}
	// build-1 wrote LIB@0.05 and LIB@0.1; build-2 overwrote LIB@0.05.
	if names != 2 {
		t.Errorf("cache holds %d records, want 2: %v", names, ents)
	}
}

// TestSessionWithoutCacheDir: the persistent layer stays disabled unless
// asked for — no .tomcache directory appears as a test side effect.
func TestSessionWithoutCacheDir(t *testing.T) {
	s := NewSession(Options{Scale: 0.05})
	if s.CacheDir() != "" {
		t.Fatalf("cache dir = %q, want disabled", s.CacheDir())
	}
	if _, err := s.Run("LIB", CfgBaseline); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Simulated != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestWarmPopulatesDiskCache: a warmed matrix must be fully replayable by a
// later session — the CI cold-then-warm smoke job in .github/workflows
// asserts the same property end-to-end through cmd/tomx.
func TestWarmPopulatesDiskCache(t *testing.T) {
	dir := t.TempDir()
	pairs := []Pair{
		{Abbr: "LIB", Config: CfgBaseline},
		{Abbr: "LIB", Config: CfgCtrlTmap},
		{Abbr: "SP", Config: CfgBaseline},
		{Abbr: "SP", Config: CfgCtrlTmap},
	}
	cold := NewSession(Options{Scale: 0.05, CacheDir: dir, Fingerprint: "fp"})
	if err := cold.Warm(pairs); err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st.Simulated != uint64(len(pairs)) {
		t.Fatalf("cold stats = %+v", st)
	}
	warm := NewSession(Options{Scale: 0.05, CacheDir: dir, Fingerprint: "fp"})
	if err := warm.Warm(pairs); err != nil {
		t.Fatal(err)
	}
	if st := warm.CacheStats(); st.DiskHits != uint64(len(pairs)) || st.Simulated != 0 {
		t.Fatalf("warm pass must be a pure replay: %+v", st)
	}
	for _, p := range pairs {
		a, _ := cold.Run(p.Abbr, p.Config)
		b, _ := warm.Run(p.Abbr, p.Config)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: replay differs", p.Key())
		}
	}
}

// TestExecuteRunsAtTheSpecsScale: a spec names its own scale, and a session
// runs it at that scale whatever its default is — the result filed under the
// spec's digest, in the memo and on disk, is the run the digest names.
func TestExecuteRunsAtTheSpecsScale(t *testing.T) {
	want, err := NewSession(Options{Scale: 0.05}).Run("SP", CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewRunSpec("SP", 0.05, CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, _, err := NewSession(Options{Scale: 0.03, CacheDir: dir}).Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("SP/baseline@0.05 on a 0.03 session: %d cycles, %d thread instructions; want %d, %d",
			got.Stats.Cycles, got.Stats.ThreadInstrs, want.Stats.Cycles, want.Stats.ThreadInstrs)
	}
	res, src, err := NewSession(Options{Scale: 0.03, CacheDir: dir}).Lookup(spec, spec.Digest())
	if err != nil || src != SourceDisk || res == nil {
		t.Fatalf("Lookup on a fresh session = (%v, %q, %v), want a disk hit", res, src, err)
	}
	if !reflect.DeepEqual(res.Stats, want.Stats) {
		t.Errorf("disk record of SP/baseline@0.05 holds %d cycles, want %d", res.Stats.Cycles, want.Stats.Cycles)
	}
}

// TestLookupNeverSimulatesNorWaits pins Lookup's contract, the one a server
// answers hits with while its simulation slots are busy: a miss is a nil
// result with no work done, a memo or disk hit names its layer (a disk hit
// is promoted to the memo), and a flight running for the same digest is
// neither joined nor waited for.
func TestLookupNeverSimulatesNorWaits(t *testing.T) {
	dir := t.TempDir()
	const scale = 0.05
	spec, err := NewRunSpec("LIB", scale, CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	digest := spec.Digest()
	lookup := func(s *Session, want RunSource) *RunResult {
		t.Helper()
		res, src, err := s.Lookup(spec, digest)
		if err != nil || src != want || (res == nil) != (want == "") {
			t.Fatalf("Lookup = (%v, %q, %v), want source %q", res, src, err, want)
		}
		return res
	}

	cold := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "fp"})
	// A flight for this very run is in progress and will not finish until
	// the test says so: Lookup must come back with a miss regardless.
	flying, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cold.once("run/"+digest, func() error { close(flying); <-release; return nil })
	}()
	<-flying
	lookup(cold, "")
	close(release)
	wg.Wait()
	if st := cold.CacheStats(); st != (CacheStats{}) {
		t.Fatalf("a missing Lookup did work: %+v", st)
	}

	ran, _, err := cold.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := lookup(cold, SourceMemo); got != ran {
		t.Error("memo Lookup returned a different result than the run that filled it")
	}

	warm := NewSession(Options{Scale: scale, CacheDir: dir, Fingerprint: "fp"})
	if got := lookup(warm, SourceDisk); !reflect.DeepEqual(got, ran) {
		t.Error("disk Lookup differs from the simulated result")
	}
	lookup(warm, SourceMemo) // promoted
	if st := warm.CacheStats(); st != (CacheStats{MemoHits: 1, DiskHits: 1}) {
		t.Fatalf("warm session stats = %+v, want one disk hit then one memo hit", st)
	}

	memoOnly := NewSession(Options{Scale: scale})
	lookup(memoOnly, "")
}

// TestOracleRunsBesideOthersOfTheWorkload is a concurrency guard: runs
// clone the shared pristine instance without a lock, and an oracle run also
// profiles its own clone and reads the shared profile memo for its install.
// No run or profile may write the pristine instance; CI runs this mix of
// runs of one workload under -race to see that none does.
func TestOracleRunsBesideOthersOfTheWorkload(t *testing.T) {
	s := NewSession(Options{Scale: 0.03})
	cfgs := []ConfigName{CfgCtrlOracle, CfgBaseline, CfgCtrlBmap, CfgNoCtrlBmap}
	errs := NewScheduler(len(cfgs)).ForEach(context.Background(), len(cfgs), func(i int) error {
		_, err := s.Run("LIB", cfgs[i])
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Errorf("LIB/%s: %v", cfgs[i], err)
		}
	}
}
