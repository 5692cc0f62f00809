package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

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

// forEachPair runs fn over pairs on a Scheduler bounded by GOMAXPROCS and
// joins every failure, reported in submission order so the message is
// deterministic.
func forEachPair(pairs []Pair, fn func(Pair) error) error {
	errs := NewScheduler(0).ForEach(context.Background(), len(pairs), func(i int) error {
		return fn(pairs[i])
	})
	var joined []error
	for i, p := range pairs {
		if errs[i] != nil {
			joined = append(joined, fmt.Errorf("warm %s: %w", p.Key(), errs[i]))
		}
	}
	return errors.Join(joined...)
}

// Warm executes the given runs in parallel (bounded by GOMAXPROCS),
// populating the memo (and, when enabled, the persistent cache) so
// subsequent Run calls return instantly. Every failing (workload,
// configuration) pair is reported: the returned error joins one wrapped
// error per failure.
func (s *Session) Warm(pairs []Pair) error {
	return forEachPair(pairs, func(p Pair) error {
		_, err := s.Run(p.Abbr, p.Config)
		return err
	})
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

// Observer builds the scoped observer for one run and returns it together
// with the scoped registry view (whose Snapshot covers just this run).
func (p *ObsPolicy) Observer(pair Pair) (*obs.Observer, *obs.Registry) {
	return p.ObserverFor(pair.Key())
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

// observedOne executes one observed run through exec with a policy-scoped
// observer and returns the run's scoped snapshot. The sink chain is flushed
// on success and failure alike: a sampling sink emits its per-kind
// trace_sampled conservation summaries at flush, and a run that failed
// halfway has already pushed events through the chain — swallowing the
// flush on the error path would make the shared trace under-report what
// was sampled away.
func (s *Session) observedOne(label string, policy ObsPolicy, exec func(*obs.Observer) error) (*obs.Snapshot, error) {
	o, scoped := policy.ObserverFor(label)
	runErr := exec(o)
	flushErr := obs.Flush(o.Trace)
	if runErr != nil {
		return nil, runErr
	}
	if flushErr != nil {
		return nil, flushErr
	}
	return scoped.Snapshot(), nil
}

// WarmObserved executes the given runs in parallel, each with a scoped
// observer onto the policy's shared registry, and returns each run's
// scoped metrics snapshot. Like RunObserved, results are verified but not
// memoized. Failures are joined as in Warm; snapshots of failed runs are
// absent from the result.
func (s *Session) WarmObserved(pairs []Pair, policy ObsPolicy) (map[Pair]*obs.Snapshot, error) {
	out := make(map[Pair]*obs.Snapshot, len(pairs))
	var outMu sync.Mutex
	err := forEachPair(pairs, func(p Pair) error {
		snap, err := s.observedOne(p.Key(), policy, func(o *obs.Observer) error {
			_, err := s.RunObserved(p.Abbr, p.Config, o)
			return err
		})
		if err != nil {
			return err
		}
		outMu.Lock()
		out[p] = snap
		outMu.Unlock()
		return nil
	})
	return out, err
}

// WarmSpecsObserved is WarmObserved over fully-resolved specs: each spec
// executes with a scoped observer labeled spec.Key(), and the result slice
// aligns with specs (nil snapshot for a failed run). Callers batching
// specs that share a Key (same workload and configuration name with
// different resolved parameters) should expect their metrics to merge
// under one label. Failures are joined as in Warm.
func (s *Session) WarmSpecsObserved(specs []RunSpec, policy ObsPolicy) ([]*obs.Snapshot, error) {
	out := make([]*obs.Snapshot, len(specs))
	errs := NewScheduler(0).ForEach(context.Background(), len(specs), func(i int) error {
		snap, err := s.observedOne(specs[i].Key(), policy, func(o *obs.Observer) error {
			_, err := s.RunSpecObserved(specs[i], o)
			return err
		})
		if err != nil {
			return err
		}
		out[i] = snap
		return nil
	})
	var joined []error
	for i, sp := range specs {
		if errs[i] != nil {
			joined = append(joined, fmt.Errorf("warm %s: %w", sp.Key(), errs[i]))
		}
	}
	return out, errors.Join(joined...)
}

// FullMatrix lists every (workload, configuration) pair the complete
// experiment suite needs: all of AllConfigNames over all workloads.
func FullMatrix() []Pair {
	var pairs []Pair
	for _, c := range AllConfigNames() {
		for _, a := range Abbrs() {
			pairs = append(pairs, Pair{Abbr: a, Config: c})
		}
	}
	return pairs
}
