package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one cell or request share
// Run; Parent is the span that caused this one (0 = none). SelfNS is the
// span's duration minus the part of it its children cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Run     int    `json:"run"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// scope is a position in the span tree: new spans opened from it become
// children of span id and inherit run. The zero scope records nothing.
type scope struct {
	tr  *tracer
	id  int
	run int
}

func (s scope) withRun(run int) scope { s.run = run; return s }

// open starts a child span and returns the scope inside it.
func (s scope) open(name string) scope {
	if s.tr == nil {
		return s
	}
	t := s.tr
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: s.id, Name: name, Run: s.run,
		StartNS: time.Since(t.t0).Nanoseconds()})
	t.mu.Unlock()
	return scope{tr: t, id: id, run: s.run}
}

// close ends the span this scope is inside.
func (s scope) close() {
	if s.tr == nil || s.id == 0 {
		return
	}
	now := time.Since(s.tr.t0).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[s.id-1].EndNS = now
	s.tr.mu.Unlock()
}

// timed runs f inside a child span (when tracing) and returns its duration.
func (s scope) timed(name string, f func()) time.Duration {
	c := s.open(name)
	start := time.Now()
	f()
	d := time.Since(start)
	c.close()
	return d
}

// fillSelf sets SelfNS on every span: its duration minus the union of its
// children's intervals, clipped to the span itself so that concurrent or
// overrunning children never drive self time negative.
func fillSelf(spans []span) {
	type iv struct{ a, b int64 }
	children := map[int][]iv{}
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], iv{sp.StartNS, sp.EndNS})
		}
	}
	for i := range spans {
		sp := &spans[i]
		ivs := children[sp.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		var covered int64
		edge := sp.StartNS
		for _, c := range ivs {
			a, b := max(c.a, edge), min(c.b, sp.EndNS)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		sp.SelfNS = sp.EndNS - sp.StartNS - covered
	}
}

// write computes self times and writes one JSON object per span.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	fillSelf(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
