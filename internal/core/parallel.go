package core

import (
	"context"
	"errors"
	"fmt"
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
