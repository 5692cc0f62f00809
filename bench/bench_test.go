package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/mem"
)

// TestMain lets the test binary serve as the speedometer's child, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(speedometerEnv) != "" {
		speedometerMain()
		return
	}
	os.Exit(m.Run())
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
	// Python: statistics.quantiles([1,2,3,4,5], n=4) = [1.5, 3.0, 4.5].
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (4.5-1.5)/3", got)
	}
	// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if median(nil) != 0 || summarize(nil) != nil {
		t.Error("empty input must give 0 and no summary")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 2000 samples: p99 is the 1980th, twenty lie beyond it.
	if got := tailPercentile(ramp(2000), 0.99); got != 1980 {
		t.Errorf("p99 of 2000 = %v, want 1980", got)
	}
	// 300 samples: a true p99 would leave three beyond; the 290th leaves ten.
	if got := tailPercentile(ramp(300), 0.99); got != 290 {
		t.Errorf("p99 of 300 = %v, want 290", got)
	}
	// Too few samples for any tail: the median.
	if got := tailPercentile(ramp(15), 0.99); got != 8 {
		t.Errorf("p99 of 15 = %v, want the median 8", got)
	}
}

func TestTimeWeightedQuantileSeesTheStall(t *testing.T) {
	// One request blocked for 2 s among 200 that took 0.1 ms: by count the
	// median is 0.1 ms, by time 99% of the phase was spent in the stall.
	lat := []float64{2000}
	for i := 0; i < 200; i++ {
		lat = append(lat, 0.1)
	}
	if got := median(lat); got != 0.1 {
		t.Errorf("plain median = %v, want 0.1", got)
	}
	if got := timeWeightedQuantile(lat, 0.5); got != 2000 {
		t.Errorf("time-weighted median = %v, want 2000", got)
	}
	// Without a stall the two agree.
	if got := timeWeightedQuantile([]float64{1, 1, 1, 1}, 0.5); got != 1 {
		t.Errorf("time-weighted median of equal latencies = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},  // overlaps 2: union is 10..60
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // overruns its parent: clipped to 90..100
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 40},  // covers its parent fully
	}
	fillSelf(spans)
	for id, want := range map[int]int64{1: 40, 2: 0, 3: 30, 4: 30, 5: 30} {
		if got := spans[id-1].SelfNS; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestTracerNestsAndWrites(t *testing.T) {
	tr := newTracer()
	root := scope{tr: tr}.open("root")
	root.withRun(7).timed("child", func() {})
	root.close()
	path := t.TempDir() + "/spans"
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != 1 || tr.spans[1].Run != 7 || tr.spans[1].Name != "child" {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].SelfNS != tr.spans[0].EndNS-tr.spans[0].StartNS-(tr.spans[1].EndNS-tr.spans[1].StartNS) {
		t.Errorf("root self time does not exclude its child: %+v", tr.spans)
	}
	// The untraced scope records nothing and still times.
	if d := (scope{}).timed("x", func() {}); d < 0 {
		t.Error("negative duration")
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and metrics.go/
// workloads.go in step, and both inside the benchmark contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(b.Workloads) != len(workloadTable) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloadTable))
	}
	for i, w := range workloadTable {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, code has %q", i, b.Workloads[i], w.name+": "+w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200 (%d)", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in metrics.go", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		seen[d.name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in metrics.go", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if j := b.PerLayer[i]; j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, j, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "higher" && d.better != "lower") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
	}
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Error("the first end-to-end metric must be setup_s in s, lower is better")
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestCorruptedImageIsAFailedOperation: with one word of an application's
// functional reference flipped, every cell of that application must be
// counted as failed — the checker checks — and the others must pass.
func TestCorruptedImageIsAFailedOperation(t *testing.T) {
	set, _, err := buildSimSet(scope{}, []string{"KM", "LIB"}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	r := newRun(context.Background(), workloadTable[0], 1, false, binaries{})
	set.round(r, scope{}, set.cells, 1, roundOpt{})
	if r.attempted != len(set.cells) || r.failed != 0 {
		t.Fatalf("clean round: %d attempted, %d failed: %v", r.attempted, r.failed, r.failures)
	}
	ref := set.ref["KM"]
	ref.Store4(mem.AllocBase, ref.Load4(mem.AllocBase)^1)
	set.round(r, scope{}, set.cells, 2, roundOpt{})
	if want := len(simConfigs); r.failed != want {
		t.Fatalf("corrupted reference: %d failed, want the %d KM cells: %v", r.failed, want, r.failures)
	}
}

// TestTamperedResultIsAFailedOperation exercises the response checker on
// hand-built replies.
func TestTamperedResultIsAFailedOperation(t *testing.T) {
	body := func(source, result string) []byte {
		return []byte(`{"results":[{"digest":"abcdef0123","source":"` + source + `","result":` + result + `}]}`)
	}
	results := map[string][]byte{}
	ok := reply{status: http.StatusOK, body: body("simulated", `{"Stats":{"Cycles":5}}`)}
	if failed, why := checkSlots(ok, 1, "simulated", results); failed != 0 {
		t.Fatalf("clean reply failed: %s", why)
	}
	cases := map[string]reply{
		"tampered result": {status: http.StatusOK, body: body("memo", `{"Stats":{"Cycles":6}}`)},
		"wrong source":    {status: http.StatusOK, body: body("disk", `{"Stats":{"Cycles":5}}`)},
		"rejected":        {status: http.StatusTooManyRequests, body: []byte("admission queue full")},
		"slot error":      {status: http.StatusOK, body: []byte(`{"results":[{"error":"boom"}]}`)},
		"missing slot":    {status: http.StatusOK, body: []byte(`{"results":[]}`)},
	}
	for name, rep := range cases {
		if failed, _ := checkSlots(rep, 1, "memo", results); failed != 1 {
			t.Errorf("%s: %d failed, want 1", name, failed)
		}
	}
	same := reply{status: http.StatusOK, body: body("memo", `{"Stats":{"Cycles":5}}`)}
	if failed, why := checkSlots(same, 1, "memo", results); failed != 0 {
		t.Errorf("identical memo result failed: %s", why)
	}
	if got := sumCycles(ok.body); got != 5 {
		t.Errorf("sumCycles = %d, want 5", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "x_s", better: "lower", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, scale(steady, 1.05), "same"},
		{"worse", lower, steady, scale(steady, 1.2), "worse"},
		{"better", lower, steady, scale(steady, 0.8), "better"},
		{"higher is better", metricDef{better: "higher", bound: 0.10}, steady, scale(steady, 0.8), "worse"},
		{"noisy", lower, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, []float64{0.8, 1.1, 1.4, 0.9, 1.0}, "unresolved"},
		{"noisy but every run worse", lower, []float64{0.7, 1.0, 1.3, 0.8, 1.2}, []float64{2, 2.5, 3, 2.2, 2.8}, "worse"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at the smallest sizes and
// checks that it measures exactly the listed metrics with no failed
// operation: the end-to-end list untraced, and for the first workload also
// the per-layer list from a traced pass whose spans must cover its wall. It
// builds and spawns tomx and tomserve.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns tomx and tomserve")
	}
	bins, build, err := buildBinaries()
	if err != nil {
		t.Fatal(err)
	}
	small := func(w workload, traced bool) (*run, result) {
		r := newRun(context.Background(), w, 1, traced, bins)
		r.in.SimScale, r.in.SweepScale, r.in.ServeScale = 0.01, 0.01, 0.01
		r.size = sizes{setupReps: 1, simRounds: 1, sweepColds: 1, sweepWarms: 1,
			serveRounds: 1, serveHits: tailBlock, serveRestarts: 1}
		res, err := r.measure(0, build, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
		}
		for name, m := range r.metrics {
			if m.Unit != units[name] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s = %v %s", name, m.Value, m.Unit)
			}
		}
		return r, res
	}
	for _, w := range workloadTable {
		t.Run(w.name, func(t *testing.T) {
			_, res := small(w, false)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced pass reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		r, res := small(workloadTable[0], true)
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("traced pass reports %d metrics, want %d", len(res.Metrics), len(perLayer))
		}
		// The spans directly under the root are sequential; together they
		// must account for the traced wall.
		root := r.tr.spans[0]
		var covered int64
		for _, sp := range r.tr.spans {
			if sp.Parent == root.ID {
				covered += sp.EndNS - sp.StartNS
			}
		}
		wall := root.EndNS - root.StartNS
		if dev := math.Abs(float64(covered-wall)) / float64(wall); dev > 0.05 {
			t.Errorf("top-level spans cover %d ns of a traced wall of %d ns (%.1f%% apart)", covered, wall, dev*100)
		}
	})
}

// TestNoRunArtifactsInBench: the root .gitignore swallows *.jsonl, *.log,
// *.out, fig9*.json, trace*.json and *.metrics.json anywhere in the tree, so
// a file of that shape in this directory would exist on the author's machine
// and be missing from every clone.
func TestNoRunArtifactsInBench(t *testing.T) {
	for _, pattern := range []string{"*.jsonl", "*.log", "*.out", "fig9*.json", "trace*.json", "*.metrics.json"} {
		if got, _ := filepath.Glob(pattern); len(got) > 0 {
			t.Errorf("%v match the ignored pattern %s; write run artifacts under -out", got, pattern)
		}
	}
}
