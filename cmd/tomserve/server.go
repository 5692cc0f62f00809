package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// options configures a server instance. The zero values of workers/queue/
// timeout select the defaults in newServer; tests construct these directly,
// main fills them from flags.
type options struct {
	scale       float64       // default problem scale (per-run override allowed)
	cacheDir    string        // persistent result cache root ("" = memo only)
	fingerprint string        // build-fingerprint override ("" = real build)
	workers     int           // simulation concurrency bound (<=0 = GOMAXPROCS)
	queue       int           // admission bound: queued+running batch requests
	timeout     time.Duration // default per-batch deadline (0 = no deadline)
	logf        func(format string, args ...any)
}

// server is the sweep service: it accepts batches of runs over HTTP, executes
// them through one Session (every spec carries its own scale) on one
// Scheduler, and reports per-batch cache accounting. Cache hits are answered
// on the request goroutine and never wait for a simulation slot; the global
// worker bound holds across every batch in flight.
type server struct {
	opts  options
	sess  *core.Session
	sched *core.Scheduler
	reg   *obs.Registry // server-level metrics, exposed at /metrics
	// admit bounds admitted batch work (batch posts and trace streams,
	// queued or running). Acquisition is non-blocking: a full channel is an
	// immediate 429, so a burst degrades into fast rejections instead of a
	// connection pile-up.
	admit chan struct{}

	mu    sync.Mutex
	specs map[string]core.RunSpec // digest -> resolved spec (trace endpoint)
}

// Request bounds. A batch is untrusted input to a long-lived process: the
// body, the run count and the problem scale (memory and simulated work grow
// with it) are each capped, and a batch over a cap is refused whole.
const (
	maxBatchBytes = 1 << 20
	maxBatchRuns  = 1024 // the full workload x configuration matrix is 180
	maxScale      = 8.0
)

func newServer(opts options) *server {
	if opts.scale <= 0 {
		opts.scale = 1.0
	}
	if opts.queue <= 0 {
		opts.queue = 16
	}
	if opts.logf == nil {
		opts.logf = func(string, ...any) {}
	}
	return &server{
		opts: opts,
		sess: core.NewSession(core.Options{
			Scale:       opts.scale,
			CacheDir:    opts.cacheDir,
			Fingerprint: opts.fingerprint,
			Progress:    opts.logf,
		}),
		sched: core.NewScheduler(opts.workers),
		reg:   obs.NewRegistry(),
		admit: make(chan struct{}, opts.queue),
		specs: map[string]core.RunSpec{},
	}
}

// handler builds the route table (go 1.22 method+wildcard patterns).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleBatch)
	mux.HandleFunc("GET /v1/runs/{digest}/trace", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// batchRequest is the POST /v1/runs body.
type batchRequest struct {
	Runs []runRequest `json:"runs"`
	// TimeoutMS overrides the server's per-batch deadline for this batch
	// (0 keeps the server default; a negative value is refused).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// runRequest names one run; scale 0 selects the server default, and a
// negative one is refused.
type runRequest struct {
	Workload string  `json:"workload"`
	Config   string  `json:"config"`
	Scale    float64 `json:"scale,omitempty"`
}

// runResponse is one run's slot in the batch response, aligned with the
// request order. Source reports which cache layer satisfied the run.
type runResponse struct {
	Workload string         `json:"workload"`
	Config   string         `json:"config"`
	Scale    float64        `json:"scale"`
	Digest   string         `json:"digest,omitempty"`
	Source   core.RunSource `json:"source,omitempty"`
	// Mapping reports the run's data-mapping provenance: "learned" (this
	// run's learning phase), "preset" (in force from cycle 0: ctrl-oracle,
	// ctrl-tmap-preset), or "baseline" (no bit mapping).
	Mapping string          `json:"mapping,omitempty"`
	Error   string          `json:"error,omitempty"`
	Result  *core.RunResult `json:"result,omitempty"`
}

// batchSummary is the per-batch cache accounting (the HTTP counterpart of
// tomx run's "cache: hits=... simulated=..." stderr line), counted in slots:
// Simulated is the slots a fresh simulation answered, not the simulations
// the batch caused (a ctrl-tmap-preset slot may simulate its ctrl-tmap run
// too; the runs.simulated counter counts those). Misses = simulated +
// errors: every slot the cache layers could not satisfy.
type batchSummary struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Simulated int `json:"simulated"`
	Errors    int `json:"errors"`
}

type batchResponse struct {
	Results []runResponse `json:"results"`
	Cache   batchSummary  `json:"cache"`
}

// decodeBatch reads a POST /v1/runs body: exactly one batch object, with no
// field the server does not know and nothing after it, inside the request
// bounds. A refused body comes back with its HTTP status.
func decodeBatch(body io.Reader) (req batchRequest, status int, err error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err = dec.Decode(&req); err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = cmp.Or(tail, errors.New("data after the batch object"))
		}
	}
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		return req, http.StatusRequestEntityTooLarge, err
	case err != nil:
		return req, http.StatusBadRequest, err
	case len(req.Runs) == 0:
		return req, http.StatusBadRequest, errors.New("no runs")
	case len(req.Runs) > maxBatchRuns:
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("%d runs, the limit is %d", len(req.Runs), maxBatchRuns)
	case req.TimeoutMS < 0:
		return req, http.StatusBadRequest, fmt.Errorf("timeout_ms %d is negative", req.TimeoutMS)
	}
	for i, rr := range req.Runs {
		if rr.Scale < 0 || rr.Scale > maxScale {
			return req, http.StatusBadRequest, fmt.Errorf("run %d: scale %v, want 0 to %v", i, rr.Scale, maxScale)
		}
	}
	return req, http.StatusOK, nil
}

// tryAdmit acquires an admission slot without blocking; on failure it has
// already written the 429.
func (s *server) tryAdmit(w http.ResponseWriter) bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		s.reg.Counter("http.rejected").Inc()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
		return false
	}
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !s.tryAdmit(w) {
		return
	}
	defer func() { <-s.admit }()
	s.reg.Counter("http.batches").Inc()

	req, status, err := decodeBatch(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err != nil {
		http.Error(w, "bad batch: "+err.Error(), status)
		return
	}

	// The deadline covers the whole batch; it also inherits the client's
	// disconnect through the request context, so an abandoned batch stops
	// claiming new scheduler slots (runs already simulating finish — a
	// simulation cannot be interrupted mid-run — and land in the caches).
	ctx := r.Context()
	timeout := s.opts.timeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Hits first: every resolvable run is looked up here, on the request
	// goroutine, and only the misses go to the scheduler — a memo or disk
	// hit never waits for a simulation slot, whatever else is in flight.
	results := make([]runResponse, len(req.Runs))
	type job struct {
		idx  int // slot in results
		spec core.RunSpec
	}
	jobs := make([]job, 0, len(req.Runs)) // every resolvable run
	var misses []int                      // the jobs no cache layer holds
	inline := 0
	for i, rr := range req.Runs {
		scale := rr.Scale
		if scale == 0 {
			scale = s.opts.scale
		}
		results[i] = runResponse{
			Workload: rr.Workload,
			Config:   rr.Config,
			Scale:    scale,
		}
		spec, err := core.NewRunSpec(rr.Workload, scale, core.ConfigName(rr.Config))
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		// Hashed for the lookup and the response; only a miss (Execute) rehashes.
		results[i].Digest = spec.Digest()
		jobs = append(jobs, job{i, spec})
		res, src, err := s.sess.Lookup(spec, results[i].Digest)
		switch {
		case err != nil:
			results[i].Error = err.Error()
		case res != nil:
			results[i].fill(res, src)
			inline++
		default:
			misses = append(misses, len(jobs)-1)
		}
	}

	// Misses execute on the shared scheduler: concurrent batches contend
	// for the same slots, so the server-wide simulation bound holds.
	errs := s.sched.ForEach(ctx, len(misses), func(m int) error {
		j := jobs[misses[m]]
		res, src, err := s.sess.Execute(j.spec)
		if err == nil {
			results[j.idx].fill(res, src)
		}
		return err
	})
	for m, err := range errs {
		if err != nil {
			results[jobs[misses[m]].idx].Error = err.Error()
		}
	}

	// Remember digests for the trace endpoint (successes only: a spec that
	// never ran cleanly is not worth re-executing under observation).
	s.mu.Lock()
	for _, j := range jobs {
		if results[j.idx].Error == "" {
			s.specs[results[j.idx].Digest] = j.spec
		}
	}
	s.mu.Unlock()

	var sum batchSummary
	for i := range results {
		switch {
		case results[i].Error != "":
			sum.Errors++
		case results[i].Source == core.SourceSimulated:
			sum.Simulated++
		default:
			sum.Hits++
		}
	}
	sum.Misses = sum.Simulated + sum.Errors
	s.reg.Counter("runs.hits").Add(uint64(sum.Hits))
	s.reg.Counter("runs.hits_inline").Add(uint64(inline))
	s.reg.Counter("runs.errors").Add(uint64(sum.Errors))

	s.writeJSON(w, batchResponse{Results: results, Cache: sum})
}

// traceFlushEvery is how many events a streamed trace holds before the
// encoder flushes through to the client: the client's lag behind the
// simulation.
const traceFlushEvery = 64

// handleTrace re-executes a previously-submitted run under observation and
// streams its binary lifecycle trace (decode with tomx trace) as it is
// produced. Observation requires an actual execution (only an execution
// yields events), so this endpoint always simulates — it admits through the
// same queue as batches and runs Session.Observe as one item of the same
// scheduler, so traces count against the simulation bound. Observe's chain
// (sampling, run label) ends in an AutoFlush layer over the encoder, which
// bounds the client's lag, and the trace_sampled conservation summaries
// arrive at the end of the stream whether the run succeeds or fails.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	// Admission comes first: under saturation even lookup traffic bounces,
	// keeping the 429 the one overload signal.
	if !s.tryAdmit(w) {
		return
	}
	defer func() { <-s.admit }()
	digest := r.PathValue("digest")
	s.mu.Lock()
	spec, ok := s.specs[digest]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "unknown run digest (submit it via POST /v1/runs first)", http.StatusNotFound)
		return
	}
	sample := 1
	if q := r.URL.Query().Get("sample"); q != "" {
		var err error
		if sample, err = strconv.Atoi(q); err != nil || sample < 1 {
			http.Error(w, "bad sample (want a positive integer)", http.StatusBadRequest)
			return
		}
	}
	s.reg.Counter("http.traces").Inc()

	w.Header().Set("Content-Type", "application/octet-stream")
	fw := &flushWriter{w: w}
	trace := obs.NewAutoFlushSink(obs.NewBinarySink(fw), traceFlushEvery)
	err := s.sched.ForEach(r.Context(), 1, func(int) error {
		_, _, err := s.sess.Observe(spec, trace, sample, 0)
		return err
	})[0]
	if err != nil {
		// Once bytes are on the wire the status is spent; truncating the
		// stream is all HTTP allows. Before that, a clean 500 is possible.
		if !fw.wrote {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.opts.logf("trace %s: %v", spec.Key(), err)
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// The scheduler and the session keep their own running totals; bring
	// the counters up to them. The session counts every simulation, the
	// ctrl-tmap run a preset slot simulates inside its own flight included.
	s.mu.Lock()
	c := s.reg.Counter("sched.slot_wait_us")
	c.Add(uint64(s.sched.SlotWait().Microseconds()) - c.Value())
	c = s.reg.Counter("runs.simulated")
	c.Add(s.sess.CacheStats().Simulated - c.Value())
	s.mu.Unlock()
	s.writeJSON(w, s.reg.Snapshot())
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.opts.logf("response encode: %v", err)
	}
}

// flushWriter forwards writes and, when the ResponseWriter supports it,
// flushes the HTTP layer after each one — writes only arrive here when the
// trace encoder itself flushes, so this is the trace streaming cadence.
type flushWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (f *flushWriter) Write(p []byte) (int, error) {
	n, err := f.w.Write(p)
	if n > 0 {
		f.wrote = true
	}
	if fl, ok := f.w.(http.Flusher); ok {
		fl.Flush()
	}
	return n, err
}

// fill completes a run's slot from its result and the layer that held it.
func (r *runResponse) fill(res *core.RunResult, src core.RunSource) {
	r.Source, r.Mapping, r.Result = src, mappingLabel(res.Stats.MappingSource), res
}

// mappingLabel renders a run's mapping provenance for the batch response:
// the simulator leaves MappingSource empty when no bit mapping was active
// (baseline interleave throughout).
func mappingLabel(src string) string {
	if src == "" {
		return "baseline"
	}
	return src
}
