// Package obs is the simulator's observability layer: a zero-dependency,
// allocation-light metrics registry (counters and fixed-interval time
// series) plus a structured event trace for the offload lifecycle.
//
// The cycle-level simulator only exposes end-of-run totals through
// sim.Stats; obs adds the time axis. An Observer is attached through
// sim.Config.Observer and receives
//
//   - lifecycle events (candidate seen → gated/sent → spawn → ack →
//     coherence invalidate) through an optional EventSink, and
//   - occupancy/traffic samples every SampleEvery cycles into the
//     Registry's time series.
//
// Everything is nil-safe: a nil Observer (the default) costs the hot path
// a single pointer comparison, and an Observer without a Trace sink still
// collects metrics. All registry primitives are safe for concurrent use,
// so one Observer can serve runs executing in parallel goroutines.
package obs

// Observer bundles a metrics registry with an optional event trace and the
// sampling cadence the simulator should use.
type Observer struct {
	// Registry collects counters and time series. Never nil for
	// observers built with New.
	Registry *Registry
	// Trace, when non-nil, receives one Event per offload-lifecycle step.
	Trace EventSink
	// SampleEvery is the occupancy/traffic sampling interval in cycles.
	// Zero selects DefaultSampleEvery.
	SampleEvery int64
}

// DefaultSampleEvery is the sampling interval used when SampleEvery is 0.
const DefaultSampleEvery = 1024

// New returns an Observer with a fresh registry and no trace sink.
func New() *Observer {
	return &Observer{Registry: NewRegistry()}
}

// Interval returns the effective sampling interval.
func (o *Observer) Interval() int64 {
	if o == nil || o.SampleEvery <= 0 {
		return DefaultSampleEvery
	}
	return o.SampleEvery
}

// Emit forwards an event to the trace sink; a nil observer or sink drops it.
func (o *Observer) Emit(ev Event) {
	if o == nil || o.Trace == nil {
		return
	}
	o.Trace.Emit(ev)
}

// Event is one structured trace record. Kind identifies the lifecycle step;
// which of the remaining fields carry meaning is a per-kind property (see
// docs/OBSERVABILITY.md). SM, Stack, and PC always serialize — SM 0, stack 0,
// and PC 0 are legitimate values, so they must stay distinguishable from an
// inapplicable field; "no stack" is encoded as Stack -1, never by omission.
type Event struct {
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	// Run labels the originating run ("ABBR/config") when several runs
	// share one sink (see LabelSink); empty for single-run traces.
	Run string `json:"run,omitempty"`
	// SM is the emitting streaming multiprocessor's global id.
	SM int `json:"sm"`
	// Stack is the memory stack involved (destination for offloads);
	// -1 when the step fired before a destination was known (gate events
	// with reason cond or nodest).
	Stack int `json:"stack"`
	// PC is the candidate region's start PC.
	PC int `json:"pc"`
	// Reason qualifies gate events (busy, full, cond, alu, nodest) and
	// names the sampled kind on trace_sampled summaries.
	Reason string `json:"reason,omitempty"`
	// Bytes is the payload size on the wire for send/ack events.
	Bytes int `json:"bytes,omitempty"`
	// N is an event-specific count (dirty lines invalidated, learning
	// instances observed, events seen on trace_sampled summaries).
	N int `json:"n,omitempty"`
	// Bit is the learned mapping bit on learn-end events; nil when the
	// learning phase closed without picking a bit (and on every other
	// kind). A pointer so a learned bit of 0 round-trips unambiguously.
	Bit *int `json:"bit,omitempty"`
	// Kept is the number of events forwarded per kind on trace_sampled
	// summaries (N - Kept were dropped).
	Kept int `json:"kept,omitempty"`
}

// BitValue returns a pointer to b, for building learn-end events.
func BitValue(b int) *int { return &b }

// Event kinds emitted by the simulator (see docs/OBSERVABILITY.md).
const (
	EvCandidate = "candidate" // main-SM warp reached a candidate entry
	EvGate      = "gate"      // offload suppressed (Reason says why)
	EvSend      = "send"      // offload request queued on the TX link
	EvSpawn     = "spawn"     // stack SM started executing the region
	EvAck       = "ack"       // region done; ack queued on the RX link
	EvFinish    = "finish"    // requesting warp resumed (N dirty lines)
	EvLearnEnd  = "learn_end" // tmap learning phase closed
)

// EvTraceSampled is the synthetic per-kind summary a SamplingSink emits when
// it is flushed: Reason names the sampled kind, N counts the events seen and
// Kept the events forwarded, so a thinned trace states what was sampled away
// (seen = kept + dropped).
const EvTraceSampled = "trace_sampled"

// EventSink consumes trace events. Implementations must be safe for
// concurrent Emit calls.
type EventSink interface {
	Emit(Event)
}

// Flusher is implemented by sinks that buffer, summarize, or wrap other
// sinks. Flush drains whatever the sink holds back — buffered bytes,
// pending trace_sampled summaries — and propagates through wrapper chains
// to the innermost sink. Call it once, after the last Emit.
type Flusher interface {
	Flush() error
}

// Flush flushes s if it (or whatever it wraps) implements Flusher; sinks
// with nothing to flush are a no-op.
func Flush(s EventSink) error {
	if f, ok := s.(Flusher); ok {
		return f.Flush()
	}
	return nil
}
