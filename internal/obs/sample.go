package obs

import (
	"sort"
	"sync"
)

// LabelSink stamps every event with a run label before forwarding it, so
// several concurrent runs can share one trace sink and the merged stream
// stays attributable. Safe for concurrent Emit when the inner sink is.
type LabelSink struct {
	inner EventSink
	run   string
}

// NewLabelSink wraps inner, setting Event.Run to run on every event.
func NewLabelSink(inner EventSink, run string) *LabelSink {
	return &LabelSink{inner: inner, run: run}
}

// Emit forwards the event with the run label applied.
func (s *LabelSink) Emit(ev Event) {
	ev.Run = s.run
	s.inner.Emit(ev)
}

// Flush flushes the wrapped sink.
func (s *LabelSink) Flush() error { return Flush(s.inner) }

// kindTally counts one event kind through a SamplingSink.
type kindTally struct {
	seen, kept uint64
}

// SamplingSink forwards one event in every n per event kind (always the
// first of each kind) and drops the rest, bounding trace volume on long
// full-scale runs while keeping every lifecycle step represented. n <= 1
// forwards everything. Safe for concurrent Emit.
//
// Flush emits one synthetic EvTraceSampled summary per sampled kind
// (Reason = kind, N = seen, Kept = forwarded) into the wrapped sink before
// flushing it, so a thinned trace records exactly what was sampled away;
// seen = kept + dropped always holds. In pass-through mode (n <= 1) nothing
// is counted and Flush only propagates.
type SamplingSink struct {
	inner EventSink
	n     uint64

	mu        sync.Mutex
	seen      map[string]*kindTally
	summarize bool // summaries not yet emitted
}

// NewSamplingSink wraps inner, keeping every nth event of each kind.
func NewSamplingSink(inner EventSink, n int) *SamplingSink {
	if n < 1 {
		n = 1
	}
	return &SamplingSink{inner: inner, n: uint64(n), seen: map[string]*kindTally{},
		summarize: n > 1}
}

// Emit forwards the event when its kind's counter lands on a sampling
// point and drops it otherwise; either way it is counted as seen.
func (s *SamplingSink) Emit(ev Event) {
	if s.n <= 1 {
		s.inner.Emit(ev)
		return
	}
	s.mu.Lock()
	t := s.seen[ev.Kind]
	if t == nil {
		t = &kindTally{}
		s.seen[ev.Kind] = t
	}
	keep := t.seen%s.n == 0
	t.seen++
	if keep {
		t.kept++
	}
	s.mu.Unlock()
	if keep {
		s.inner.Emit(ev)
	}
}

// Flush emits the per-kind trace_sampled summaries (once — later flushes
// only propagate) and flushes the wrapped sink.
func (s *SamplingSink) Flush() error {
	s.mu.Lock()
	var kinds []string
	if s.summarize {
		s.summarize = false
		for k := range s.seen {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
	}
	summaries := make([]Event, 0, len(kinds))
	for _, k := range kinds {
		t := s.seen[k]
		summaries = append(summaries, Event{Kind: EvTraceSampled, Reason: k,
			N: int(t.seen), Kept: int(t.kept)})
	}
	s.mu.Unlock()
	for _, ev := range summaries {
		s.inner.Emit(ev)
	}
	return Flush(s.inner)
}
