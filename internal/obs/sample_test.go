package obs

import (
	"testing"
)

// flushCountSink records how often Flush propagated to the innermost sink.
type flushCountSink struct {
	CollectSink
	flushes int
}

func (s *flushCountSink) Flush() error {
	s.flushes++
	return nil
}

// TestSamplingSinkFlushSummaries: Flush must append one trace_sampled
// summary per sampled kind, the summaries must conserve the counts
// (seen = kept + dropped, per kind and in total), and a second Flush must
// not repeat them.
func TestSamplingSinkFlushSummaries(t *testing.T) {
	var inner flushCountSink
	s := NewSamplingSink(&inner, 7)
	emitted := map[string]int{EvSend: 100, EvGate: 23, EvLearnEnd: 1}
	for kind, n := range emitted {
		for i := 0; i < n; i++ {
			s.Emit(Event{Cycle: int64(i), Kind: kind})
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	summaries := map[string]Event{}
	for _, ev := range inner.Events() {
		if ev.Kind == EvTraceSampled {
			summaries[ev.Reason] = ev
		}
	}
	if len(summaries) != len(emitted) {
		t.Fatalf("summaries for %d kinds, want %d", len(summaries), len(emitted))
	}
	totalSeen, totalKept := 0, 0
	for kind, seen := range emitted {
		sum, ok := summaries[kind]
		if !ok {
			t.Fatalf("no summary for kind %s", kind)
		}
		if sum.N != seen {
			t.Errorf("%s: summary seen = %d, want %d", kind, sum.N, seen)
		}
		if kept := inner.CountKind(kind); sum.Kept != kept {
			t.Errorf("%s: summary kept = %d, but %d were forwarded", kind, sum.Kept, kept)
		}
		if sum.Kept > sum.N {
			t.Errorf("%s: kept %d > seen %d", kind, sum.Kept, sum.N)
		}
		totalSeen += sum.N
		totalKept += sum.Kept
	}
	// Conservation: everything seen was either forwarded or dropped.
	if forwarded := len(inner.Events()) - len(summaries); totalKept != forwarded {
		t.Errorf("summaries say %d kept, the sink forwarded %d", totalKept, forwarded)
	}
	if totalSeen != 124 {
		t.Errorf("summaries say %d seen, want 124 emitted", totalSeen)
	}
	if inner.flushes != 1 {
		t.Errorf("inner flushed %d times, want 1", inner.flushes)
	}

	// A second Flush propagates but must not duplicate the summaries.
	before := len(inner.Events())
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if after := len(inner.Events()); after != before {
		t.Errorf("second Flush appended %d events", after-before)
	}
	if inner.flushes != 2 {
		t.Errorf("second Flush did not propagate (inner flushes = %d)", inner.flushes)
	}
}

// TestSamplingSinkPassthroughNoSummaries: in pass-through mode nothing is
// sampled, so Flush must not fabricate summaries — but it still propagates.
func TestSamplingSinkPassthroughNoSummaries(t *testing.T) {
	var inner flushCountSink
	s := NewSamplingSink(&inner, 1)
	for i := 0; i < 10; i++ {
		s.Emit(Event{Cycle: int64(i), Kind: EvSend})
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := inner.CountKind(EvTraceSampled); got != 0 {
		t.Errorf("pass-through emitted %d summaries, want 0", got)
	}
	if inner.flushes != 1 {
		t.Errorf("Flush did not propagate (inner flushes = %d)", inner.flushes)
	}
}

// TestFlushChainReachesEncoder: Session.Observe's wiring is
// SamplingSink(LabelSink(encoder)); one Flush at the top must land the
// labeled summaries in the encoder before its buffer drains.
func TestFlushChainReachesEncoder(t *testing.T) {
	var inner flushCountSink
	chain := NewSamplingSink(NewLabelSink(&inner, "LIB/ctrl-tmap"), 4)
	for i := 0; i < 9; i++ {
		chain.Emit(Event{Cycle: int64(i), Kind: EvSend})
	}
	if err := Flush(chain); err != nil {
		t.Fatal(err)
	}
	if inner.flushes != 1 {
		t.Fatalf("innermost sink flushed %d times, want 1", inner.flushes)
	}
	var sum *Event
	for _, ev := range inner.Events() {
		if ev.Kind == EvTraceSampled {
			ev := ev
			sum = &ev
		}
	}
	if sum == nil {
		t.Fatal("no trace_sampled summary reached the encoder")
	}
	if sum.Run != "LIB/ctrl-tmap" {
		t.Errorf("summary run label = %q, want LIB/ctrl-tmap", sum.Run)
	}
	if sum.Reason != EvSend || sum.N != 9 || sum.Kept != 3 {
		t.Errorf("summary = %+v, want reason=send n=9 kept=3", sum)
	}
}

// TestLabelSink: every forwarded event must carry the run label.
func TestLabelSink(t *testing.T) {
	var inner CollectSink
	s := NewLabelSink(&inner, "LIB/ctrl-tmap")
	s.Emit(Event{Cycle: 1, Kind: EvSend})
	s.Emit(Event{Cycle: 2, Kind: EvAck, Run: "overwritten"})
	evs := inner.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	for _, ev := range evs {
		if ev.Run != "LIB/ctrl-tmap" {
			t.Errorf("event run = %q, want LIB/ctrl-tmap", ev.Run)
		}
	}
}

// TestSamplingSinkPerKind: sampling must be per kind (rare kinds survive a
// flood of common ones) and keep the first event of each kind.
func TestSamplingSinkPerKind(t *testing.T) {
	var inner CollectSink
	s := NewSamplingSink(&inner, 10)
	for i := 0; i < 100; i++ {
		s.Emit(Event{Cycle: int64(i), Kind: EvSend})
	}
	s.Emit(Event{Cycle: 999, Kind: EvLearnEnd})
	if got := inner.CountKind(EvSend); got != 10 {
		t.Errorf("send events kept = %d, want 10", got)
	}
	if got := inner.CountKind(EvLearnEnd); got != 1 {
		t.Errorf("rare kind must survive sampling, kept %d", got)
	}
	// The first event of a kind is always kept.
	if evs := inner.Events(); evs[0].Cycle != 0 {
		t.Errorf("first kept event cycle = %d, want 0", evs[0].Cycle)
	}
}

// TestSamplingSinkPassthrough: n <= 1 must forward everything.
func TestSamplingSinkPassthrough(t *testing.T) {
	var inner CollectSink
	s := NewSamplingSink(&inner, 0)
	for i := 0; i < 5; i++ {
		s.Emit(Event{Kind: EvGate})
	}
	if got := inner.CountKind(EvGate); got != 5 {
		t.Errorf("passthrough kept %d, want 5", got)
	}
}
