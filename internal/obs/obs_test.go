package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestRegistryHandlesAreStable: concurrent get-or-create must hand every
// goroutine the same instance, so updates land on one metric.
func TestRegistryHandlesAreStable(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	counters := make([]*Counter, workers)
	series := make([]*Series, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counters[i] = r.Counter("c")
			series[i] = r.Series("s", 64)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if counters[i] != counters[0] || series[i] != series[0] {
			t.Fatalf("worker %d got a different handle", i)
		}
	}
}

// TestRegistryConcurrentGetOrCreate: goroutines creating and updating
// distinct metrics in one registry at once (tomserve's /metrics registry
// is shared by every request) must not race or lose updates.
func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter(fmt.Sprintf("run%d.sent", i))
			s := r.Series(fmt.Sprintf("run%d.traffic", i), 64)
			for j := 0; j < per; j++ {
				c.Inc()
				s.Add(int64(j), 1)
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	for i := 0; i < workers; i++ {
		if got := snap.Counters[fmt.Sprintf("run%d.sent", i)]; got != per {
			t.Errorf("run%d counter = %d, want %d", i, got, per)
		}
		if got := r.Series(fmt.Sprintf("run%d.traffic", i), 64).Sum(); got != per {
			t.Errorf("run%d series sum = %v, want %d", i, got, per)
		}
	}
	if got := len(snap.Counters) + len(snap.Series); got != 2*workers {
		t.Errorf("snapshot holds %d metrics, want %d", got, 2*workers)
	}
}

// TestCounterConcurrentAdd: the counter must not lose increments under
// concurrent emit.
func TestCounterConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("offload.sent")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

// TestSeriesConcurrentAdd: concurrent bucket accumulation must preserve the
// total sum and bucket placement.
func TestSeriesConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	s := r.Series("traffic", 100)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.Add(int64(j), 1) // buckets 0..19
			}
		}(i)
	}
	wg.Wait()
	if got, want := s.Sum(), float64(workers*per); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	vals := s.Values()
	if len(vals) != per/100 {
		t.Fatalf("len = %d, want %d", len(vals), per/100)
	}
	for i, v := range vals {
		if v != workers*100 {
			t.Fatalf("bucket %d = %v, want %v", i, v, workers*100)
		}
	}
}

// TestSeriesBucketing pins the bucket-index arithmetic, including the
// negative-cycle guard.
func TestSeriesBucketing(t *testing.T) {
	s := NewRegistry().Series("s", 10)
	s.Add(-5, 1) // clamped to bucket 0
	s.Add(0, 1)
	s.Add(9, 1)
	s.Add(10, 2)
	s.Add(25, 4)
	want := []float64{3, 2, 4}
	got := s.Values()
	if len(got) != len(want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("values = %v, want %v", got, want)
		}
	}
	if s.Interval() != 10 {
		t.Fatalf("interval = %d", s.Interval())
	}
}

// TestSeriesIntervalFixedAtCreation: later callers with a different
// interval get the existing series.
func TestSeriesIntervalFixedAtCreation(t *testing.T) {
	r := NewRegistry()
	a := r.Series("s", 10)
	b := r.Series("s", 999)
	if a != b || b.Interval() != 10 {
		t.Fatalf("interval changed on re-lookup: %d", b.Interval())
	}
	if r.Series("d", 0).Interval() != DefaultSampleEvery {
		t.Fatal("zero interval must fall back to the default")
	}
}

// TestSnapshotIsCopy: mutating the registry after Snapshot must not change
// the snapshot.
func TestSnapshotIsCopy(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Series("s", 10).Add(0, 1.5)
	snap := r.Snapshot()
	r.Counter("c").Add(100)
	r.Series("s", 10).Add(0, 10)
	if snap.Counters["c"] != 5 {
		t.Fatalf("snapshot mutated: %+v", snap)
	}
	if sd := snap.Series["s"]; sd.Interval != 10 || len(sd.Values) != 1 || sd.Values[0] != 1.5 {
		t.Fatalf("series snapshot mutated: %+v", snap.Series["s"])
	}
}

// TestObserverNilSafety: a nil observer must be inert for every method the
// simulator calls.
func TestObserverNilSafety(t *testing.T) {
	var o *Observer
	o.Emit(Event{Kind: EvCandidate}) // must not panic
	if o.Interval() != DefaultSampleEvery {
		t.Fatalf("nil interval = %d", o.Interval())
	}
	live := New()
	live.Emit(Event{Kind: EvSend}) // nil Trace: dropped
	live.SampleEvery = 256
	if live.Interval() != 256 {
		t.Fatalf("interval = %d", live.Interval())
	}
}

// TestJSONLSinkConcurrent: concurrent Emit must produce one valid JSON
// object per line with no interleaving.
func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				sink.Emit(Event{Cycle: int64(j), Kind: EvSend, Stack: i})
			}
		}(i)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	n := 0
	for dec.More() {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Kind != EvSend {
			t.Fatalf("line %d: kind %q", n, ev.Kind)
		}
		n++
	}
	if n != workers*per {
		t.Fatalf("decoded %d events, want %d", n, workers*per)
	}
}

// TestSumAndSnapshotKeys exercises the remaining small surfaces.
func TestSumAndSnapshotKeys(t *testing.T) {
	r := NewRegistry()
	s := r.Series("x", 10)
	s.Add(0, 0.25)
	s.Add(15, 0.5)
	if math.Abs(s.Sum()-0.75) > 1e-12 {
		t.Fatalf("sum = %v", s.Sum())
	}
	r.Counter("c")
	snap := r.Snapshot()
	if _, ok := snap.Counters["c"]; !ok || len(snap.Counters) != 1 || len(snap.Series) != 1 {
		t.Fatalf("snapshot = %+v, want counter c and series x", snap)
	}
}
