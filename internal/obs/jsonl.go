package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// JSONLSink writes one JSON object per event to an io.Writer (the
// cmd/tomtrace output format). Writes are buffered; call Flush before the
// underlying writer is closed. Safe for concurrent Emit.
type JSONLSink struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w in a buffered JSON-lines encoder.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one event. The first write error is retained (and returned by
// Flush); later events are dropped.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Flush drains the buffer and returns the first error seen.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// CollectSink retains events in memory (tests, small traces).
type CollectSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (s *CollectSink) Emit(ev Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Events returns a copy of everything collected so far.
func (s *CollectSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// CountKind returns how many collected events have the given kind.
func (s *CollectSink) CountKind(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ev := range s.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}
