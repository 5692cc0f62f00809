package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
)

// flight deduplicates concurrent computations of the same key: the first
// caller computes, later callers wait. Protected by Session.mu. A flight
// lives in Session.inflight only while it is running — it is deleted the
// moment the computation finishes, so the map never grows beyond the work
// actually in progress and a failed computation never memoizes its error
// (callers arriving after the failure start a fresh flight; this is what
// makes a transient failure retryable within one long-lived session).
type flight struct {
	done chan struct{}
	err  error
}

// once runs fn for key exactly once among concurrent callers; callers that
// arrive while a flight is running block until it finishes and share its
// error. Results are communicated through the Session's memo maps (fn must
// store its own result under s.mu), so a successful flight's work is found
// there by later callers and a failed flight leaves nothing behind.
func (s *Session) once(key string, fn func() error) error {
	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	f.err = fn()
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return f.err
}

// Pair names one (workload, configuration) run.
type Pair struct {
	Abbr   string
	Config ConfigName
}

// Key returns the run identity ("ABBR/config").
func (p Pair) Key() string { return p.Abbr + "/" + string(p.Config) }

// forEach runs fn(0..n-1) on a Scheduler bounded by GOMAXPROCS and joins
// every failure, labeled by key(i) and reported in submission order so the
// message is deterministic.
func forEach(n int, key func(int) string, fn func(int) error) error {
	var joined []error
	for i, err := range NewScheduler(0).ForEach(context.Background(), n, fn) {
		if err != nil {
			joined = append(joined, fmt.Errorf("run %s: %w", key(i), err))
		}
	}
	return errors.Join(joined...)
}

// runPairs executes the given runs in parallel (bounded by GOMAXPROCS) and
// returns their results by pair. Every failing (workload, configuration)
// pair is reported: the error joins one wrapped error per failure.
func (s *Session) runPairs(pairs []Pair) (map[Pair]*RunResult, error) {
	out := make([]*RunResult, len(pairs))
	err := forEach(len(pairs), func(i int) string { return pairs[i].Key() }, func(i int) (err error) {
		out[i], err = s.Run(pairs[i].Abbr, pairs[i].Config)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := make(map[Pair]*RunResult, len(pairs))
	for i, p := range pairs {
		res[p] = out[i]
	}
	return res, nil
}

// Warm executes the given runs in parallel (failures reported as in
// runPairs), so that later Run calls find them in the memo.
func (s *Session) Warm(pairs []Pair) error {
	_, err := s.runPairs(pairs)
	return err
}

// ObsPolicy describes how a batch of observed runs shares one observability
// surface: each run gets a scoped, label-prefixed view of Registry (its
// metrics appear under "ABBR/config/..."), and trace events — optionally
// sampled per kind — are stamped with the run label before reaching the
// shared sink. This is what makes observed runs safe to execute in
// parallel: the registry primitives are race-safe and the prefixes keep
// concurrent runs from colliding on metric names.
type ObsPolicy struct {
	// Registry is the shared root registry. Required.
	Registry *obs.Registry
	// Trace, when non-nil, receives every run's lifecycle events (labeled,
	// and sampled when TraceSample > 1). Must be safe for concurrent Emit.
	Trace obs.EventSink
	// SampleEvery is the metrics sampling interval in cycles (0 = default).
	SampleEvery int64
	// TraceSample keeps one trace event in every TraceSample per event
	// kind per run (<= 1 keeps everything).
	TraceSample int
}

// ObserverFor builds the scoped observer for one run label ("ABBR/config"
// for named pairs; any unique string works) and returns it together with
// the scoped registry view.
func (p *ObsPolicy) ObserverFor(label string) (*obs.Observer, *obs.Registry) {
	scoped := p.Registry.Scoped(label + "/")
	o := &obs.Observer{Registry: scoped, SampleEvery: p.SampleEvery}
	if p.Trace != nil {
		var sink obs.EventSink = obs.NewLabelSink(p.Trace, label)
		if p.TraceSample > 1 {
			sink = obs.NewSamplingSink(sink, p.TraceSample)
		}
		o.Trace = sink
	}
	return o, scoped
}

// WarmObserved executes the given specs in parallel, each with a scoped
// observer labeled spec.Key() onto the policy's shared registry, and returns
// each run's scoped metrics snapshot, aligned with specs (nil for a failed
// run). Like any observed run, results are verified but not memoized.
// Callers batching specs that share a Key (same workload and configuration
// name with different resolved parameters) should expect their metrics to
// merge under one label. Failures are joined as in Warm.
//
// Each run's sink chain is flushed on success and failure alike: a sampling
// sink emits its per-kind trace_sampled conservation summaries at flush, and
// a run that failed halfway has already pushed events through the chain —
// swallowing the flush on the error path would make the shared trace
// under-report what was sampled away.
func (s *Session) WarmObserved(specs []RunSpec, policy ObsPolicy) ([]*obs.Snapshot, error) {
	out := make([]*obs.Snapshot, len(specs))
	err := forEach(len(specs), func(i int) string { return specs[i].Key() }, func(i int) error {
		o, scoped := policy.ObserverFor(specs[i].Key())
		_, _, runErr := s.Execute(specs[i], o)
		flushErr := obs.Flush(o.Trace)
		if runErr != nil {
			return runErr
		}
		if flushErr != nil {
			return flushErr
		}
		out[i] = scoped.Snapshot()
		return nil
	})
	return out, err
}
