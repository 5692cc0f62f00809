package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

const testScale = 0.05

func newTestServer(t *testing.T, opts options) (*server, *httptest.Server) {
	t.Helper()
	if opts.scale == 0 {
		opts.scale = testScale
	}
	s := newServer(opts)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postBatch(t *testing.T, url string, req batchRequest) (*http.Response, batchResponse, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("bad batch response: %v\n%s", err, raw)
		}
	}
	return resp, out, raw
}

// TestServerBatchCacheFastPath: the first POST of a batch simulates every
// run; the second POST of the same batch is served entirely from the cache
// layers (simulated=0) with results identical to the first — the warm-path
// acceptance check, HTTP edition.
func TestServerBatchCacheFastPath(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})
	batch := batchRequest{Runs: []runRequest{
		{Workload: "LIB", Config: "baseline"},
		{Workload: "SP", Config: "ctrl-bmap"},
	}}

	resp, cold, _ := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold batch: HTTP %d", resp.StatusCode)
	}
	if cold.Cache.Simulated != 2 || cold.Cache.Errors != 0 {
		t.Fatalf("cold batch summary = %+v, want 2 simulated", cold.Cache)
	}
	for i, r := range cold.Results {
		if r.Error != "" || r.Result == nil || r.Digest == "" {
			t.Fatalf("cold result %d incomplete: %+v", i, r)
		}
		if r.Source != core.SourceSimulated {
			t.Errorf("cold result %d source = %q, want simulated", i, r.Source)
		}
	}

	resp, warm, _ := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm batch: HTTP %d", resp.StatusCode)
	}
	if warm.Cache.Simulated != 0 || warm.Cache.Hits != 2 || warm.Cache.Misses != 0 {
		t.Fatalf("warm batch summary = %+v, want 2 hits and nothing simulated", warm.Cache)
	}
	for i := range warm.Results {
		if warm.Results[i].Source != core.SourceMemo {
			t.Errorf("warm result %d source = %q, want memo", i, warm.Results[i].Source)
		}
		a, _ := json.Marshal(cold.Results[i].Result)
		b, _ := json.Marshal(warm.Results[i].Result)
		if !bytes.Equal(a, b) {
			t.Errorf("result %d changed between cold and warm batches:\n%s\n%s", i, a, b)
		}
	}
}

// TestServerBatchAcrossScales: one server serves every scale. A batch that
// names one run at two scales gets two digests, each result equal to the run
// posted alone, and one session simulated both.
func TestServerBatchAcrossScales(t *testing.T) {
	run := func(scale float64) runRequest { return runRequest{Workload: "LIB", Config: "baseline", Scale: scale} }
	s, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test", scale: 0.05})
	batch := batchRequest{Runs: []runRequest{run(0.03), run(0.05)}}
	_, cold, raw := postBatch(t, ts.URL, batch)
	if cold.Cache.Simulated != 2 || cold.Cache.Errors != 0 {
		t.Fatalf("cold two-scale batch summary = %+v\n%s", cold.Cache, raw)
	}
	if a, b := cold.Results[0].Digest, cold.Results[1].Digest; a == b {
		t.Errorf("runs at 0.03 and 0.05 share digest %s", a)
	}
	if st := s.sess.CacheStats(); st.Simulated != 2 {
		t.Errorf("the server's session simulated %d runs, want both scales' (2)", st.Simulated)
	}
	for i, rr := range batch.Runs {
		_, ts1 := newTestServer(t, options{fingerprint: "test", scale: 0.05})
		_, alone, _ := postBatch(t, ts1.URL, batchRequest{Runs: []runRequest{rr}})
		a, _ := json.Marshal(cold.Results[i])
		b, _ := json.Marshal(alone.Results[0])
		if !bytes.Equal(a, b) {
			t.Errorf("scale %v in a two-scale batch differs from the run posted alone:\n%s\n%s", rr.Scale, a, b)
		}
	}
	if _, warm, _ := postBatch(t, ts.URL, batch); warm.Cache != (batchSummary{Hits: 2}) {
		t.Errorf("warm two-scale batch summary = %+v, want 2 hits", warm.Cache)
	}
}

// TestServerDiskReplayAcrossInstances: a second server over the same cache
// directory replays from disk without simulating — the restart story.
func TestServerDiskReplayAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	batch := batchRequest{Runs: []runRequest{{Workload: "LIB", Config: "baseline"}}}

	_, ts1 := newTestServer(t, options{cacheDir: dir, fingerprint: "test"})
	if _, cold, _ := postBatch(t, ts1.URL, batch); cold.Cache.Simulated != 1 {
		t.Fatalf("cold summary = %+v", cold.Cache)
	}

	_, ts2 := newTestServer(t, options{cacheDir: dir, fingerprint: "test"})
	_, warm, _ := postBatch(t, ts2.URL, batch)
	if warm.Cache.Simulated != 0 || warm.Cache.Hits != 1 {
		t.Fatalf("restarted-server summary = %+v, want a disk hit", warm.Cache)
	}
	if warm.Results[0].Source != core.SourceDisk {
		t.Errorf("restarted-server source = %q, want disk", warm.Results[0].Source)
	}
}

// TestServerBatchErrors: malformed bodies are 400s; unknown workloads and
// configurations fail their own slot (and count as errors) without poisoning
// the rest of the batch.
func TestServerBatchErrors(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})

	for _, body := range []string{"{nope", `{"runs":[]}`} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q: HTTP %d, want 400", body, resp.StatusCode)
		}
	}

	resp, out, _ := postBatch(t, ts.URL, batchRequest{Runs: []runRequest{
		{Workload: "LIB", Config: "baseline"},
		{Workload: "NOPE", Config: "baseline"},
		{Workload: "LIB", Config: "no-such-config"},
	}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch: HTTP %d", resp.StatusCode)
	}
	if out.Cache.Errors != 2 || out.Cache.Simulated != 1 {
		t.Fatalf("mixed batch summary = %+v, want 2 errors + 1 simulated", out.Cache)
	}
	if out.Results[0].Error != "" || out.Results[0].Result == nil {
		t.Errorf("good run infected by failing neighbours: %+v", out.Results[0])
	}
	for i, want := range map[int]string{1: "NOPE", 2: "no-such-config"} {
		if !strings.Contains(out.Results[i].Error, want) {
			t.Errorf("result %d error = %q, want mention of %q", i, out.Results[i].Error, want)
		}
	}
}

// TestServerRefusesLooseBatches: a body the server would otherwise half
// understand is refused whole with a 400 — an unknown field (a misspelt
// one, or the retired policy override: a configuration names its offload
// scheme, so a run under another row would answer to two names), data after
// the object, a
// negative scale (ran at the server default) or a negative timeout_ms
// (ignored) — and nothing is simulated.
func TestServerRefusesLooseBatches(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})
	for _, body := range []string{
		`{"runs":[{"workload":"KM","config":"baseline","polcy":"coda"}]}`,
		`{"runs":[{"workload":"KM","config":"baseline","policy":"coda"}]}`,
		`{"runs":[{"workload":"KM","config":"baseline"}]} trailing junk`,
		`{"runs":[{"workload":"KM","config":"baseline"}]}{}`,
		`{"runs":[{"workload":"KM","config":"baseline","scale":-0.5}]}`,
		`{"runs":[{"workload":"KM","config":"baseline"}],"timeout_ms":-5}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: HTTP %d (%.80s), want 400", body, resp.StatusCode, msg)
		}
	}
	if n := counters(t, ts.URL)["runs.simulated"]; n != 0 {
		t.Errorf("refused batches simulated %d runs", n)
	}
}

// FuzzBatchRequest: decodeBatch never panics, and a body it accepts is a
// batch within the request bounds — 1 to maxBatchRuns runs, every scale in
// [0, maxScale], no negative timeout — that re-encodes to itself.
func FuzzBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"runs":[{"workload":"LIB","config":"ctrl-tmap","scale":0.1}]}`,
		`{"runs":[{"workload":"KM","config":"baseline","policy":"coda"}],"timeout_ms":500}`,
		`{"runs":[{"workload":"KM","config":"baseline","polcy":"coda"}]}`,
		`{"runs":[{"workload":"KM","config":"baseline"}]} trailing junk`,
		`{"runs":[{"workload":"KM","scale":-0.5}]}`,
		`{"runs":[{"workload":"KM","scale":8.0000001}],"timeout_ms":-5}`,
		`{"runs":[]}`, `null`, `{"RUNS":[{"Workload":"HW"}]}`, "{\"runs\":[{\"workload\":\"\xff\"}]}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, status, err := decodeBatch(bytes.NewReader(body))
		if err != nil {
			if status != http.StatusBadRequest && status != http.StatusRequestEntityTooLarge {
				t.Fatalf("refused with HTTP %d: %v", status, err)
			}
			return
		}
		if n := len(req.Runs); n < 1 || n > maxBatchRuns {
			t.Fatalf("accepted %d runs", n)
		}
		for i, rr := range req.Runs {
			if !(rr.Scale >= 0 && rr.Scale <= maxScale) {
				t.Fatalf("accepted run %d at scale %v", i, rr.Scale)
			}
		}
		if req.TimeoutMS < 0 {
			t.Fatalf("accepted timeout_ms %d", req.TimeoutMS)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := decodeBatch(bytes.NewReader(enc))
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("%s re-encodes to %s, which decodes to %+v (%v), not %+v", body, enc, again, err, req)
		}
	})
}

// TestServerAdmissionQueue: with every admission slot held, batch and trace
// requests bounce with 429 + Retry-After instead of queueing; releasing a
// slot readmits.
func TestServerAdmissionQueue(t *testing.T) {
	s, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test", queue: 2})
	for i := 0; i < cap(s.admit); i++ {
		s.admit <- struct{}{}
	}
	batch := batchRequest{Runs: []runRequest{{Workload: "LIB", Config: "baseline"}}}
	resp, _, _ := postBatch(t, ts.URL, batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	tr, err := http.Get(ts.URL + "/v1/runs/feedfeed/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full queue trace: HTTP %d, want 429", tr.StatusCode)
	}

	<-s.admit
	if resp, out, _ := postBatch(t, ts.URL, batch); resp.StatusCode != http.StatusOK || out.Cache.Errors != 0 {
		t.Fatalf("after releasing a slot: HTTP %d %+v", resp.StatusCode, out.Cache)
	}
}

// TestServerBatchDeadline: a batch with a tiny timeout on a single-worker
// server reports the deadline in the slots that never started; the batch
// itself still answers 200 with per-run accounting.
func TestServerBatchDeadline(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test", workers: 1})
	resp, out, _ := postBatch(t, ts.URL, batchRequest{
		TimeoutMS: 1,
		Runs: []runRequest{
			{Workload: "LIB", Config: "baseline"},
			{Workload: "SP", Config: "baseline"},
			{Workload: "LIB", Config: "ctrl-bmap"},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deadline batch: HTTP %d", resp.StatusCode)
	}
	if out.Cache.Errors == 0 {
		t.Fatalf("1ms deadline over 3 cold runs on one worker produced no errors: %+v", out.Cache)
	}
	found := false
	for _, r := range out.Results {
		if strings.Contains(r.Error, "context deadline exceeded") {
			found = true
		}
	}
	if !found {
		t.Errorf("no slot reports the deadline: %+v", out.Results)
	}
}

// TestServerTransientFailureRetries is the end-to-end acceptance check for
// the singleflight fix: a batch that fails on a transient cache-read error
// succeeds when re-POSTed to the same server process after the condition
// clears. Before the fix the first error was memoized for the server's
// lifetime.
func TestServerTransientFailureRetries(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, options{cacheDir: dir, fingerprint: "test"})
	spec, err := core.NewRunSpec("LIB", testScale, core.CfgBaseline)
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, spec.Digest()+".json")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}

	batch := batchRequest{Runs: []runRequest{{Workload: "LIB", Config: "baseline"}}}
	_, out, _ := postBatch(t, ts.URL, batch)
	if out.Cache.Errors != 1 || !strings.Contains(out.Results[0].Error, "cache: read") {
		t.Fatalf("blocked batch = %+v, want a cache read error", out.Results)
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	_, out, _ = postBatch(t, ts.URL, batch)
	if out.Cache.Errors != 0 || out.Cache.Simulated != 1 {
		t.Fatalf("retry after the failure cleared = %+v, want one clean simulation", out.Cache)
	}
}

// TestServerTraceStream: the trace endpoint re-executes a submitted run and
// streams a decodable trace whose events carry the run's label; sampling
// appends conservation summaries; unknown digests and bad parameters fail
// cleanly.
func TestServerTraceStream(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})
	_, out, _ := postBatch(t, ts.URL, batchRequest{Runs: []runRequest{
		{Workload: "LIB", Config: "ctrl-bmap"},
	}})
	if len(out.Results) != 1 || out.Results[0].Digest == "" {
		t.Fatalf("batch gave no digest: %+v", out.Results)
	}
	digest := out.Results[0].Digest

	for _, q := range []string{"", "?sample=8"} {
		resp, err := http.Get(ts.URL + "/v1/runs/" + digest + "/trace" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace%s: HTTP %d", q, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
			t.Errorf("trace%s: Content-Type %q, want application/octet-stream", q, ct)
		}
		rd, err := obs.NewBinaryReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("trace%s: %v", q, err)
		}
		events, summaries := 0, 0
		for {
			ev, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("trace%s: decode: %v", q, err)
			}
			if ev.Run != "LIB/ctrl-bmap" {
				t.Fatalf("trace%s: event with run label %q", q, ev.Run)
			}
			if ev.Kind == obs.EvTraceSampled {
				summaries++
			}
			events++
		}
		if events == 0 {
			t.Fatalf("trace%s: empty stream", q)
		}
		if strings.Contains(q, "sample") && summaries == 0 {
			t.Errorf("trace%s: sampled stream carries no trace_sampled summaries", q)
		}
	}

	for path, want := range map[string]int{
		"/v1/runs/0000dead/trace":                http.StatusNotFound,
		"/v1/runs/" + digest + "/trace?sample=0": http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: HTTP %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestServerMetricsAndHealth: /healthz answers, and /metrics reflects the
// traffic the other tests of this server instance generated.
func TestServerMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz: HTTP %d %q", resp.StatusCode, body)
	}

	postBatch(t, ts.URL, batchRequest{Runs: []runRequest{{Workload: "LIB", Config: "baseline"}}})
	if c := counters(t, ts.URL); c["http.batches"] != 1 || c["runs.simulated"] != 1 {
		t.Fatalf("/metrics counters = %+v, want one batch and one simulation", c)
	}
}

// TestServerPresetCell: ctrl-tmap-preset is one more configuration name. A
// cold batch that asks for it beside ctrl-tmap simulates each cell once —
// the preset cell finds or makes the ctrl-tmap run it presets from — and
// labels them "preset" and "learned".
func TestServerPresetCell(t *testing.T) {
	s, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})
	_, out, _ := postBatch(t, ts.URL, batchRequest{Runs: []runRequest{
		{Workload: "LIB", Config: "ctrl-tmap-preset"}, {Workload: "LIB", Config: "ctrl-tmap"},
	}})
	for i, want := range []string{"preset", "learned"} {
		if r := out.Results[i]; r.Error != "" || r.Mapping != want {
			t.Fatalf("result %d: mapping=%q error=%q, want %q", i, r.Mapping, r.Error, want)
		}
	}
	preset, learned := &out.Results[0].Result.Stats, &out.Results[1].Result.Stats
	if preset.LearnedBit != learned.LearnedBit || preset.PCIeBytes != 0 {
		t.Errorf("preset cell: bit %d pcie %d, want ctrl-tmap's bit %d and no PCIe detour",
			preset.LearnedBit, preset.PCIeBytes, learned.LearnedBit)
	}
	if n := s.sess.CacheStats().Simulated; n != 2 {
		t.Errorf("the cold batch simulated %d runs, want 2", n)
	}
	// The preset slot simulated its ctrl-tmap dependency inside its own
	// flight, so the ctrl-tmap slot reads as a hit; the server counter still
	// counts both simulations.
	if n := counters(t, ts.URL)["runs.simulated"]; n != 2 {
		t.Errorf("runs.simulated = %d after the cold batch, want 2", n)
	}
}

// waitFor polls for server state that nothing signals.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// holdSlot occupies one of the server's simulation slots with an item that
// blocks until the returned function is called (at cleanup if not before).
func holdSlot(t *testing.T, s *server) (release func()) {
	t.Helper()
	held, free, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.sched.ForEach(context.Background(), 1, func(int) error { close(held); <-free; return nil })
	}()
	<-held
	var once sync.Once
	release = func() { once.Do(func() { close(free); <-done }) }
	t.Cleanup(release)
	return release
}

// tryBatch posts a batch and decodes the reply without touching t, so it can
// run off the test goroutine and with a client of the caller's choosing.
func tryBatch(c *http.Client, url string, req batchRequest) (out batchResponse, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := c.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// counters reads /metrics.
func counters(t *testing.T, url string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// TestServerHitBesideMiss: cache hits do not wait for a simulation slot. On
// a one-worker server whose slot is taken and with a three-miss batch in
// flight behind it, a memo hit and a disk hit posted on another connection
// are both answered, with the usual sources and summaries, before the batch
// is. When every run went through the scheduler they waited for it to drain.
func TestServerHitBesideMiss(t *testing.T) {
	dir := t.TempDir()
	memoRun := batchRequest{Runs: []runRequest{{Workload: "LIB", Config: "baseline"}}}
	diskRun := batchRequest{Runs: []runRequest{{Workload: "SP", Config: "baseline"}}}
	_, earlier := newTestServer(t, options{cacheDir: dir, fingerprint: "test"})
	if _, out, _ := postBatch(t, earlier.URL, diskRun); out.Cache.Simulated != 1 {
		t.Fatalf("seeding the disk record: %+v", out.Cache)
	}
	s, ts := newTestServer(t, options{cacheDir: dir, fingerprint: "test", workers: 1})
	if _, out, _ := postBatch(t, ts.URL, memoRun); out.Cache.Simulated != 1 {
		t.Fatalf("seeding the memo: %+v", out.Cache)
	}

	release := holdSlot(t, s)
	type reply struct {
		out batchResponse
		err error
	}
	batchDone := make(chan reply, 1)
	go func() {
		out, err := tryBatch(http.DefaultClient, ts.URL, batchRequest{Runs: []runRequest{
			{Workload: "LIB", Config: "ctrl-bmap"},
			{Workload: "SP", Config: "ctrl-bmap"},
			{Workload: "LIB", Config: "noctrl-bmap"},
		}})
		batchDone <- reply{out, err}
	}()
	waitFor(t, "the miss batch to be admitted", func() bool { return len(s.admit) == 1 })

	// A stalled hit must fail the test, not hang it.
	hits := &http.Client{Timeout: 20 * time.Second}
	for _, tc := range []struct {
		req  batchRequest
		want core.RunSource
	}{{memoRun, core.SourceMemo}, {diskRun, core.SourceDisk}} {
		out, err := tryBatch(hits, ts.URL, tc.req)
		if err != nil || len(out.Results) != 1 {
			t.Fatalf("%s hit beside the miss batch: %v: %+v", tc.want, err, out)
		}
		if r := out.Results[0]; r.Source != tc.want || r.Error != "" || r.Result == nil {
			t.Errorf("%s hit: source %q error %q result %v", tc.want, r.Source, r.Error, r.Result)
		}
		if want := (batchSummary{Hits: 1}); out.Cache != want {
			t.Errorf("%s hit summary = %+v, want %+v", tc.want, out.Cache, want)
		}
	}
	select {
	case rep := <-batchDone:
		t.Fatalf("the miss batch returned while the only slot was held: %+v %v", rep.out.Cache, rep.err)
	default:
	}

	release()
	rep := <-batchDone
	if want := (batchSummary{Misses: 3, Simulated: 3}); rep.err != nil || rep.out.Cache != want {
		t.Fatalf("miss batch = %+v (%v), want %+v", rep.out.Cache, rep.err, want)
	}
	c := counters(t, ts.URL)
	if c["runs.hits_inline"] != 2 || c["runs.hits"] != 2 || c["runs.simulated"] != 4 {
		t.Errorf("counters hits_inline=%d hits=%d simulated=%d, want 2, 2 and 4",
			c["runs.hits_inline"], c["runs.hits"], c["runs.simulated"])
	}
}

// TestServerTraceHoldsASlot: a trace re-execution is a simulation and counts
// against -workers like any other. With the only slot held, the stream does
// not start (not even its headers arrive); it runs once the slot is free, and
// the time it queued shows in sched.slot_wait_us.
func TestServerTraceHoldsASlot(t *testing.T) {
	s, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test", workers: 1})
	_, out, _ := postBatch(t, ts.URL, batchRequest{Runs: []runRequest{{Workload: "LIB", Config: "ctrl-bmap"}}})
	if len(out.Results) != 1 || out.Results[0].Error != "" {
		t.Fatalf("batch: %+v", out.Results)
	}

	release := holdSlot(t, s)
	const held = 300 * time.Millisecond
	started := make(chan struct{}) // closed when the response begins
	var raw []byte
	var status int
	var getErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/runs/" + out.Results[0].Digest + "/trace")
		close(started)
		if getErr = err; err != nil {
			return
		}
		status = resp.StatusCode
		raw, getErr = io.ReadAll(resp.Body)
		resp.Body.Close()
	}()
	waitFor(t, "the trace request to reach the scheduler", func() bool {
		return s.reg.Counter("http.traces").Value() == 1
	})
	select {
	case <-started:
		<-done
		t.Fatalf("trace stream began (HTTP %d, %d bytes, %v) while the only slot was held", status, len(raw), getErr)
	case <-time.After(held):
	}

	release()
	<-done
	if getErr != nil || status != http.StatusOK || !bytes.Contains(raw, []byte("LIB/ctrl-bmap")) {
		t.Fatalf("trace after the slot was released: HTTP %d, %d bytes, %v", status, len(raw), getErr)
	}
	if got := counters(t, ts.URL)["sched.slot_wait_us"]; got < uint64(held.Microseconds()) {
		t.Errorf("sched.slot_wait_us = %d after a trace queued for %v", got, held)
	}
}

// TestServerRequestLimits: a batch over any of the request bounds is refused
// whole with an explicit 4xx, and a batch at the bounds is served.
func TestServerRequestLimits(t *testing.T) {
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test"})
	// Unknown configurations fail in their slots before anything is built,
	// so the accepted cases cost nothing.
	runs := func(n int, scale float64) string {
		rs := make([]runRequest, n)
		for i := range rs {
			rs[i] = runRequest{Workload: "LIB", Config: "no-such-config", Scale: scale}
		}
		body, _ := json.Marshal(batchRequest{Runs: rs})
		return string(body)
	}
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"body over the byte limit", `{"runs":[{"workload":"` + strings.Repeat("A", maxBatchBytes) + `"}]}`, http.StatusRequestEntityTooLarge},
		{"one run too many", runs(maxBatchRuns+1, 0), http.StatusRequestEntityTooLarge},
		{"run count at the limit", runs(maxBatchRuns, 0), http.StatusOK},
		{"scale over the limit", runs(2, maxScale*1.001), http.StatusBadRequest},
		{"scale at the limit", runs(2, maxScale), http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: HTTP %d (%.80s), want %d", tc.name, resp.StatusCode, msg, tc.want)
		}
	}
}

// TestServerDocumentedBatches keeps the recipes honest: every fenced json
// block in the two documents' tomserve sections is a batch this server
// accepts (decodeBatch) and runs (at the test scale) without a single slot
// error. A workload, configuration or field that the documents
// name and the server does not know fails here.
func TestServerDocumentedBatches(t *testing.T) {
	fence := regexp.MustCompile("(?s)```json\n(.*?)```")
	_, ts := newTestServer(t, options{cacheDir: t.TempDir(), fingerprint: "test", scale: 0.03})
	for _, doc := range []struct{ path, heading string }{
		{"../../EXPERIMENTS.md", "## Driving the matrix through the sweep service"},
		{"../../docs/RUNCACHE.md", "## The sweep service (`tomserve`)"},
	} {
		text, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		_, section, found := strings.Cut(string(text), doc.heading+"\n")
		if !found {
			t.Fatalf("%s has no section %q", doc.path, doc.heading)
		}
		section, _, _ = strings.Cut(section, "\n## ")
		blocks := fence.FindAllStringSubmatch(section, -1)
		if len(blocks) == 0 {
			t.Errorf("%s %q: no fenced json batch", doc.path, doc.heading)
		}
		for i, b := range blocks {
			name := fmt.Sprintf("%s block %d", filepath.Base(doc.path), i+1)
			req, _, err := decodeBatch(strings.NewReader(b[1]))
			if err != nil {
				t.Errorf("%s is not a batch: %v\n%s", name, err, b[1])
				continue
			}
			for r := range req.Runs {
				req.Runs[r].Scale = 0 // the server's, reduced
			}
			resp, out, raw := postBatch(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK || out.Cache.Errors != 0 || len(out.Results) != len(req.Runs) {
				t.Errorf("%s: HTTP %d, summary %+v\n%.400s", name, resp.StatusCode, out.Cache, raw)
			}
		}
	}
}
