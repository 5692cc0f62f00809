package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Series is a fixed-interval time series: Add(cycle, v) accumulates v into
// the bucket cycle/interval. Sampling a quantity exactly once per interval
// therefore records instantaneous values; adding byte deltas at interval
// boundaries records per-interval totals whose Sum equals the cumulative
// total regardless of bucket placement.
type Series struct {
	interval int64

	mu   sync.Mutex
	vals []float64
}

// Interval returns the bucket width in cycles.
func (s *Series) Interval() int64 { return s.interval }

// Add accumulates v into the bucket containing cycle. Negative cycles land
// in bucket 0.
func (s *Series) Add(cycle int64, v float64) {
	idx := 0
	if cycle > 0 {
		idx = int(cycle / s.interval)
	}
	s.mu.Lock()
	for len(s.vals) <= idx {
		s.vals = append(s.vals, 0)
	}
	s.vals[idx] += v
	s.mu.Unlock()
}

// Len returns the number of buckets (highest touched bucket + 1).
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.vals)
}

// Sum returns the total across all buckets.
func (s *Series) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

// Values returns a copy of the bucket values.
func (s *Series) Values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.vals))
	copy(out, s.vals)
	return out
}

// Registry holds named metrics. Lookups are get-or-create and return stable
// pointers, so hot paths resolve each handle once and then update it
// lock-free (counters) or under the series' own mutex. A registry is
// safe for concurrent use: an observed run owns a private one, and
// tomserve's /metrics registry is shared by every request.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	series   map[string]*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		series:   map[string]*Series{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Series returns the named series, creating it with the given interval on
// first use. The interval is fixed at creation; later callers receive the
// existing series regardless of the interval they pass.
func (r *Registry) Series(name string, interval int64) *Series {
	if interval <= 0 {
		interval = DefaultSampleEvery
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		s = &Series{interval: interval}
		r.series[name] = s
	}
	return s
}

// SeriesData is the exportable form of one Series.
type SeriesData struct {
	Interval int64     `json:"interval"`
	Values   []float64 `json:"values"`
}

// Snapshot is a point-in-time copy of every metric, shaped for JSON export
// (the tomx run -metrics schema, see docs/OBSERVABILITY.md).
type Snapshot struct {
	Counters map[string]uint64     `json:"counters,omitempty"`
	Series   map[string]SeriesData `json:"series,omitempty"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{
		Counters: make(map[string]uint64, len(r.counters)),
		Series:   make(map[string]SeriesData, len(r.series)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, s := range r.series {
		snap.Series[name] = SeriesData{Interval: s.Interval(), Values: s.Values()}
	}
	return snap
}
