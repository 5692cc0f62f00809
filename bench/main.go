// Command bench is the repository's performance benchmark (BENCHMARK.json).
// It measures the simulator from outside — timing calls into the public
// functions of each layer and the built tomx and tomserve binaries — on two
// workloads, verifies every operation, and prints every metric by name.
//
//	go run ./bench                                  # both workloads, end-to-end metrics
//	go run ./bench -trace 1                         # the traced pass: per-layer metrics + spans
//	go run ./bench -workload memory -seed 7         # one workload, another seed
//	go run ./bench -runs 10 -out A                  # a set of runs (seeds seed..seed+9)
//	go run ./bench -compare A/result.json B/result.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}. See README.md in this
// directory for what each metric means and which one a change should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// buildDir holds everything the benchmark leaves behind: built binaries,
// result files, span files and per-run scratch directories. It is relative
// to the module root and listed in .gitignore.
const buildDir = ".bench_build"

type binaries struct{ tomx, tomserve string }

// sizes is the least each surface does; untraced, it then goes on until its
// share of the time budget is used up.
type sizes struct {
	setupReps     int
	simRounds     int
	sweepColds    int
	sweepWarms    int
	serveRounds   int
	serveHits     int // phase B requests per round
	serveRestarts int // phase C restarts per round
}

// defaultSizes are the floors of a measured run, and the whole of a traced
// one, which needs the layer measurements rather than steady quartiles.
func defaultSizes(traced bool) sizes {
	if traced {
		return sizes{setupReps: 1, simRounds: 2, sweepColds: 1, sweepWarms: 3,
			serveRounds: 1, serveHits: tailBlock, serveRestarts: 1}
	}
	return sizes{setupReps: 5, simRounds: 2, sweepColds: 2, sweepWarms: 100,
		serveRounds: 3, serveHits: tailBlock, serveRestarts: 2}
}

// run is one execution of one workload.
type run struct {
	ctx      context.Context // cancelled by a signal; children die with it
	w        workload
	in       *inputs
	traced   bool
	size     sizes
	bins     binaries
	dir      string // this run's scratch directory
	tr       *tracer
	root     scope
	deadline time.Time // of the surface being measured
	meter    *speedometer
	// slowdown is what the speedometer read over the surface whose metrics
	// are being set (1 = quiet) and damping the exponent that surface's host
	// times respond to it with; setSamples normalises by them.
	slowdown float64
	damping  float64

	mu        sync.Mutex // ops are counted from two goroutines in phase D
	attempted int
	failed    int
	failures  []string
	notes     []string
	metrics   map[string]metric
	servers   []*server
	nextTemp  int
}

// op counts one verified operation.
func (r *run) op(ok bool, format string, args ...any) {
	n := 0
	if !ok {
		n = 1
	}
	r.ops(1, n, format, args...)
}

// ops counts n operations of which failed did not verify; the message
// describes the failure and is kept for the first few.
func (r *run) ops(n, failed int, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += failed
	if failed > 0 && len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64) { r.setSamples(name, v, nil) }

// setSamples records a metric and the repeats it is a statistic of. Host
// times, and rates per host second, are normalised by the speedometer
// according to their unit (speed.go); the value as measured and the slowdown
// it was measured at stay beside the normalised one.
func (r *run) setSamples(name string, v float64, samples []float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is not in metrics.go")
	}
	scale := 1.0
	switch unit {
	case "s", "ms", "us", "ns":
		scale = 1 / speedFactor(r.slowdown, r.damping)
	case "kwinstr/s", "1/s":
		scale = speedFactor(r.slowdown, r.damping)
	}
	m := metric{Value: v * scale, Unit: unit}
	if scale != 1 {
		m.Raw, m.Slowdown = v, r.slowdown
	}
	if len(samples) > 0 {
		scaled := make([]float64, len(samples))
		for i, x := range samples {
			scaled[i] = x * scale
		}
		m.Spread = summarize(scaled)
	}
	r.metrics[name] = m
}

// pace takes a speedometer reading; surfaces call it between measurements.
func (r *run) pace() {
	if r.meter != nil {
		r.meter.read()
	}
}

// paceSince takes one more reading and sets what the metrics set from here
// on are normalised by: the speedometer's slowdown since t0, and the damping
// of the surface that was measured since then.
func (r *run) paceSince(t0 time.Time, damping float64) {
	r.pace()
	r.damping = damping
	if r.meter != nil {
		r.slowdown = r.meter.since(t0)
	}
}

// more reports whether the surface being measured should keep going: only
// untraced, and only until its deadline.
func (r *run) more() bool {
	return !r.traced && time.Now().Before(r.deadline)
}

// roomFor reports whether another step that last took d fits before the
// deadline.
func (r *run) roomFor(d time.Duration) bool {
	return time.Until(r.deadline) > d+d/8
}

func (r *run) tempDir(kind string) string {
	r.nextTemp++
	dir := filepath.Join(r.dir, fmt.Sprintf("%s-%d", kind, r.nextTemp))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		r.op(false, "mkdir %s: %v", dir, err)
	}
	return dir
}

// setup does the work that precedes the timed region, several times over so
// that its quiet-host value is steady: build the library surface's instances,
// references and profiles; create a fresh cache directory; spawn a server
// on it and wait for /healthz.
func (r *run) setup() (*simSet, error) {
	sc := r.root.open("setup")
	defer sc.close()
	var set *simSet
	var total, build, functional, profile []float64
	start := time.Now()
	for i := 0; i < r.size.setupReps; i++ {
		r.pace()
		s, cost, err := buildSimSet(sc, r.w.apps, r.in.SimScale)
		if err != nil {
			return nil, err
		}
		var mkdir string
		dirCost := sc.timed("setup.mkdir", func() { mkdir = r.tempDir("setup") })
		srv, spawn, err := r.startServer(sc, mkdir)
		if err != nil {
			return nil, err
		}
		if _, err := srv.stop(); err != nil {
			return nil, err
		}
		set = s
		total = append(total, seconds(cost.total()+dirCost+spawn))
		build = append(build, seconds(cost.build))
		functional = append(functional, seconds(cost.functional))
		profile = append(profile, seconds(cost.profile))
	}
	r.paceSince(start, workDamping)
	r.setSamples("setup_s", quiet(total), total)
	if r.traced {
		r.set("workloads.build_s", median(build))
		r.set("exec.functional_s", median(functional))
		r.set("sim.profile_s", median(profile))
	}
	return set, nil
}

// execute runs the workload: setup, then the three surfaces, each until its
// share of the time budget is used up.
func (r *run) execute(secs float64) {
	r.root = scope{tr: r.tr}.open("workload " + r.w.name)
	set, err := r.setup()
	if err != nil {
		r.op(false, "setup: %v", err)
		r.root.close()
		return
	}
	measure := map[string]func(){
		surfaceSim:   func() { r.simSurface(set) },
		surfaceSweep: r.sweepSurface,
		surfaceServe: r.serveSurface,
	}
	// Deadlines are cumulative: what one surface leaves over — it stops when
	// another round would not fit — the next one gets.
	r.deadline = time.Now()
	for _, s := range surfaces {
		r.deadline = r.deadline.Add(time.Duration(secs * s.share * float64(time.Second)))
		measure[s.name]()
	}
	if r.traced {
		r.sessionLayer(r.root, set)
		r.paceSince(time.Time{}, workDamping) // the whole run, for what setup and the build measured
		var baseline float64
		for _, c := range set.cells {
			if c.cfg == simConfigs[0] {
				baseline += float64(set.stats[c.key()].WarpInstrs)
			}
		}
		r.set("exec.functional_kwinstr_per_s", ratio(baseline/1e3, r.metrics["exec.functional_s"].Value))
	}
	r.root.close()
}

// stopServers kills whatever children are still alive (normally none).
func (r *run) stopServers() {
	for _, s := range r.servers {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			s.peakRSS()
		}
	}
}

// witness compares the simulated-cycle total of the service surface's first
// batch with the same cells of the committed tombench trajectory, the
// repository's only other record of them. A mismatch means the model
// changed, not that an operation failed.
func (r *run) witness(cycles int64) {
	const file = "BENCH_2026-08-08.json"
	data, err := os.ReadFile(filepath.Join(moduleRoot(), file))
	var rec struct {
		Scale float64 `json:"scale"`
		Cells []struct {
			Workload string          `json:"workload"`
			Config   core.ConfigName `json:"config"`
			Loop     string          `json:"loop"`
			Cycles   int64           `json:"simulated_cycles"`
		} `json:"cells"`
	}
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	var want int64
	for _, c := range rec.Cells {
		if c.Loop == "event" && slices.Contains(r.w.apps, c.Workload) && slices.Contains(simConfigs, c.Config) {
			want += c.Cycles
		}
	}
	note := ""
	switch {
	case err != nil:
		note = fmt.Sprintf("%s unreadable (%v); batch simulated %d cycles", file, err, cycles)
	case rec.Scale != r.in.ServeScale:
		note = fmt.Sprintf("%s is at scale %v, this run at %v; not compared", file, rec.Scale, r.in.ServeScale)
	case want == cycles:
		note = fmt.Sprintf("batch of %v x %v simulated %d cycles = the same cells of %s", r.w.apps, simConfigs, cycles, file)
	default:
		note = fmt.Sprintf("MODEL CHANGED — batch of %v x %v simulated %d cycles, %s records %d", r.w.apps, simConfigs, cycles, file, want)
	}
	r.notes = append(r.notes, "cycle witness: "+note)
}

// moduleRoot is the nearest directory at or above the working directory
// that holds go.mod.
func moduleRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// buildBinaries builds tomx and tomserve from source into the build
// directory and returns how long the go command took.
func buildBinaries() (binaries, time.Duration, error) {
	root := moduleRoot()
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return binaries{}, 0, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/tomx", "./cmd/tomserve")
	cmd.Dir = root
	start := time.Now()
	out, err := cmd.CombinedOutput()
	if err != nil {
		return binaries{}, 0, fmt.Errorf("go build: %w: %s", err, out)
	}
	return binaries{tomx: filepath.Join(bin, "tomx"), tomserve: filepath.Join(bin, "tomserve")}, time.Since(start), nil
}

// result is one run as written to result.json.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Inputs    *inputs           `json:"inputs"`
	Seconds   float64           `json:"seconds"`
	WallS     float64           `json:"wall_s"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is result.json: where and how the runs were made, then the runs.
type resultFile struct {
	Schema     string   `json:"schema"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Runs       []result `json:"runs"`
}

const resultSchema = "tom-bench/v1"

// newRun prepares one execution of a workload at its default sizes.
func newRun(ctx context.Context, w workload, seed int64, traced bool, bins binaries) *run {
	r := &run{ctx: ctx, w: w, in: newInputs(seed), traced: traced, size: defaultSizes(traced),
		bins: bins, metrics: map[string]metric{}, slowdown: 1, damping: workDamping}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// measure executes the run in a scratch directory of its own and reports
// the pass's metrics; a traced run also writes its spans under out.
func (r *run) measure(secs float64, build time.Duration, out string) (result, error) {
	start := time.Now()
	scratch, err := os.MkdirTemp(filepath.Join(moduleRoot(), buildDir), "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	r.dir = scratch
	if r.meter, err = startSpeedometer(r.ctx); err != nil {
		return result{}, err
	}
	defer r.meter.stop()
	defer r.stopServers()
	r.execute(secs)
	if n := len(r.meter.readings); n > 0 {
		s := make([]float64, n)
		for i, rd := range r.meter.readings {
			s[i] = rd.slowdown
		}
		r.notes = append(r.notes, fmt.Sprintf("speedometer: %d readings, slowdown q1 %.3f median %.3f q3 %.3f",
			n, quantile(s, 0.25), median(s), quantile(s, 0.75)))
	} else {
		r.notes = append(r.notes, "speedometer: no reading; timings are as measured")
	}
	want := endToEnd
	if r.traced {
		want = perLayer
		r.set("bench.go_build_s", seconds(build))
		if err := r.tr.write(filepath.Join(out, r.w.name+".spans.jsonl")); err != nil {
			return result{}, err
		}
	}

	res := result{Workload: r.w.name, Traced: r.traced, Inputs: r.in, Seconds: secs,
		Attempted: r.attempted, Failed: r.failed, Failures: r.failures, Notes: r.notes,
		Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			res.Failed++
			res.Failures = append(res.Failures, "metric "+d.name+" was not measured")
			continue
		}
		res.Metrics[d.name] = m
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.WallS = seconds(time.Since(start))
	return res, nil
}

// print lists the run's metrics by name with unit and, where the value is a
// statistic of samples, their quartiles and count.
func (res result) print() {
	pass := "end-to-end, untraced"
	defs := endToEnd
	if res.Traced {
		pass, defs = "per-layer, traced", perLayer
	}
	fmt.Printf("\n== %s (%s) seed %d, scales sim %v sweep %v serve %v, %.1f s\n", res.Workload, pass,
		res.Inputs.Seed, res.Inputs.SimScale, res.Inputs.SweepScale, res.Inputs.ServeScale, res.WallS)
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %14.6g %-10s", d.name, m.Value, m.Unit)
		if s := m.Spread; s != nil {
			line += fmt.Sprintf(" q1 %.6g  median %.6g  q3 %.6g  n %d", s.Q1, s.Median, s.Q3, s.N)
		}
		if m.Slowdown != 0 {
			line += fmt.Sprintf("  (measured %.6g at slowdown %.2f)", m.Raw, m.Slowdown)
		}
		fmt.Println(strings.TrimRight(line, " "))
		if d.name == "sim.tom_speedup_geomean" {
			fmt.Println("    (paper Fig. 8: 1.30x at full size; the model is unvalidated at bench scale, so no error figure)")
		}
	}
	fmt.Printf("operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Println("  FAILED:", f)
	}
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}

// contractLine is the object the driver reads from the last line.
func (res result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		out.Metrics[name] = value{m.Value, m.Unit}
	}
	b, _ := json.Marshal(out) // plain numbers and strings: cannot fail
	return string(b)
}

func commit() string {
	out, err := exec.Command("git", "-C", moduleRoot(), "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: both)")
		seed         = flag.Int64("seed", 1, "input seed; 1 uses the nominal scales exactly")
		secs         = flag.Float64("seconds", 54, "time budget of one run's timed region")
		trace        = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and <out>/<workload>.spans.jsonl")
		runs         = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		out          = flag.String("out", "", "directory for result.json and span files (default "+buildDir+"/out)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if os.Getenv(speedometerEnv) != "" {
		speedometerMain()
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		if !compareFiles(flag.Arg(0), flag.Arg(1)) {
			os.Exit(1)
		}
		return
	}

	todo := workloadTable
	if *workloadName != "" {
		w, ok := workloadByName(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		todo = []workload{w}
	}
	bins, build, err := buildBinaries()
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		*out = filepath.Join(moduleRoot(), buildDir, "out")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	fmt.Printf("artifacts: %s\n", *out)

	// Children are started under ctx, so a signal kills them; the run then
	// winds down through its normal failure paths and the exit code says so.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	file := resultFile{Schema: resultSchema, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var last result
	for i := 0; i < *runs; i++ {
		for _, w := range todo {
			res, err := newRun(ctx, w, *seed+int64(i), *trace == 1, bins).measure(*secs, build, *out)
			if err != nil {
				fatal(err)
			}
			res.print()
			file.Runs = append(file.Runs, res)
			last = res
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(*out, "result.json"), append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	if ctx.Err() != nil {
		fatal(fmt.Errorf("interrupted"))
	}
	if *workloadName != "" {
		fmt.Println(last.contractLine())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
