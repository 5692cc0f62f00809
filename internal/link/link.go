// Package link models the off-chip channels of the NDP system: the
// unidirectional GPU↔stack links (TX: GPU→memory, RX: memory→GPU, HMC-like)
// and the cross-stack links, each with a serialization bandwidth in
// bytes/cycle, a propagation latency, and a utilization monitor — the
// Channel Busy Monitor of §4.1 ❷ that dynamic offloading control consults.
//
// Serialization is deterministic, so the link never needs to be ticked
// every cycle: each packet's serialization-finish cycle is computed at Send
// time, and all per-cycle bookkeeping (BusyCycles, the busy-monitor
// buckets, BytesSent) advances lazily in bulk when the link is next
// observed. AdvanceTo(now) — which Tick aliases — is therefore free to
// jump across any span in which no packet is delivered: the skipped cycles
// are reconstructed exactly. The per-cycle reference loop simply calls
// AdvanceTo once per cycle and exercises the same code.
package link

import "math"

// Packet is a unit of transfer. Bytes includes all header overhead.
// Deliver runs at the receiving end after serialization + propagation.
type Packet struct {
	Bytes   int
	Deliver func(now int64)
}

// qpacket is a queued packet plus its precomputed serialization-finish
// cycle (absolute). Finish cycles within a burst are non-decreasing.
type qpacket struct {
	p      Packet
	finish int64
}

type inflight struct {
	p  Packet
	at int64
}

// fifo is a growable ring buffer. Popping advances a head index and zeroes
// the vacated slot, so a link in steady state reuses its capacity instead of
// reallocating (re-slicing the head away burns capacity for good) and a
// delivered packet's callback is not kept reachable by a dead prefix.
type fifo[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) front() *T { return &q.buf[q.head] }

func (q *fifo[T]) back() *T { return &q.buf[(q.head+q.n-1)&(len(q.buf)-1)] }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *fifo[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Link is a unidirectional bandwidth-limited channel.
type Link struct {
	Name          string
	BytesPerCycle float64
	PropLatency   int64

	queue     fifo[qpacket]
	inflight  fifo[inflight]
	busWindow busyMonitor

	// burstStart is the first serialization cycle of the current burst (a
	// maximal span of back-to-back busy cycles); burstBytes accumulates the
	// byte prefix of packets in the burst, so each packet's finish cycle is
	// the first cycle k of the burst with k·BytesPerCycle ≥ its prefix.
	burstStart int64
	burstBytes float64
	// acctThrough is the last cycle whose serialization effects (counter
	// increments, busy-monitor records, queue→inflight moves) have been
	// applied. Accounting is prefix-based and idempotent: advancing to b
	// directly or via any intermediate cycles yields identical state.
	acctThrough int64

	// Stats.
	BytesSent   uint64
	PacketsSent uint64
	BusyCycles  uint64
}

// New creates a link.
func New(name string, bytesPerCycle float64, propLatency int64) *Link {
	return &Link{Name: name, BytesPerCycle: bytesPerCycle, PropLatency: propLatency,
		busWindow: newBusyMonitor(), acctThrough: -1}
}

// Send enqueues a packet for transmission at cycle `now`. Serialization
// starts this cycle if the link has not yet been advanced through `now`
// (the normal case: sends happen earlier in the cycle than link advances),
// and next cycle otherwise — exactly when a per-cycle Tick would first see
// the packet.
func (l *Link) Send(p Packet, now int64) {
	l.account(now - 1)
	if l.queue.len() == 0 {
		// acctThrough ≥ now-1 after the account call, so the burst starts
		// at `now` when the link has not been advanced this cycle yet, and
		// at now+1 when it has.
		l.burstStart = l.acctThrough + 1
		l.burstBytes = 0
	}
	l.burstBytes += float64(p.Bytes)
	// finish = burstStart + k - 1 for the smallest k ≥ 1 with
	// k·BytesPerCycle ≥ burstBytes. Nudge the ceil result to make the
	// comparison — not the division's rounding — authoritative.
	k := int64(math.Ceil(l.burstBytes / l.BytesPerCycle))
	if k < 1 {
		k = 1
	}
	for k > 1 && float64(k-1)*l.BytesPerCycle >= l.burstBytes {
		k--
	}
	for float64(k)*l.BytesPerCycle < l.burstBytes {
		k++
	}
	l.queue.push(qpacket{p: p, finish: l.burstStart + k - 1})
}

// QueuedPackets returns the number of packets not yet moved to the
// propagation stage as of the last accounting point (loop diagnostics; for
// exact occupancy at a cycle use Snapshot, which accounts first).
func (l *Link) QueuedPackets() int { return l.queue.len() }

// Active reports whether the link has pending work.
func (l *Link) Active() bool { return l.queue.len() > 0 || l.inflight.len() > 0 }

// account applies serialization effects for all cycles through `target`:
// busy-cycle counting (one per cycle the queue is non-empty, matching the
// per-cycle reference), busy-monitor records, and moving packets whose
// serialization completed to the in-flight (propagation) stage. It fires
// no callbacks, so read paths (Utilization, Snapshot) may call it safely.
func (l *Link) account(target int64) {
	if target <= l.acctThrough {
		return
	}
	if l.queue.len() > 0 {
		a := l.acctThrough + 1
		if a < l.burstStart {
			a = l.burstStart
		}
		b := target
		if last := l.queue.back().finish; b > last {
			b = last
		}
		if a <= b {
			l.BusyCycles += uint64(b - a + 1)
			l.busWindow.addSpan(a, b)
		}
		for l.queue.len() > 0 && l.queue.front().finish <= target {
			q := l.queue.pop()
			l.BytesSent += uint64(q.p.Bytes)
			l.PacketsSent++
			l.inflight.push(inflight{p: q.p, at: q.finish + l.PropLatency})
		}
	}
	l.acctThrough = target
}

// AdvanceTo advances the link to cycle `now`: serialization effects for
// every cycle through `now` are applied in bulk, and packets whose
// propagation completed are delivered. Calling it once per cycle (the
// per-cycle reference loop) and calling it only at NextEvent cycles (the
// event-driven loop) produce identical state and identical delivery times.
func (l *Link) AdvanceTo(now int64) {
	l.account(now)
	for l.inflight.len() > 0 && l.inflight.front().at <= now {
		f := l.inflight.pop()
		if f.p.Deliver != nil {
			f.p.Deliver(now)
		}
	}
}

// SkipTo marks the link as advanced through `now` without doing any work.
// Valid only when the link is idle (nothing queued or in flight): an idle
// link's AdvanceTo would only move the accounting point anyway. The point
// still must move — Send uses it to decide whether the link has had its
// turn this cycle (burst starts now vs. now+1) — so the simulator calls
// this inlinable fast path instead of skipping idle links outright.
func (l *Link) SkipTo(now int64) {
	if now > l.acctThrough {
		l.acctThrough = now
	}
}

// NextEvent returns the next cycle at which this link does observable work
// — delivers a packet — or -1 when fully idle. Serialization progress in
// between is invisible (it is accounted lazily), so the event-driven loop
// may jump straight to this cycle. In-flight entries are sorted by
// delivery cycle because PropLatency is constant and finish cycles are
// monotone; the head queued packet's delivery can never precede them.
func (l *Link) NextEvent() int64 {
	next := int64(-1)
	if l.inflight.len() > 0 {
		next = l.inflight.front().at
	}
	if l.queue.len() > 0 {
		if t := l.queue.front().finish + l.PropLatency; next < 0 || t < next {
			next = t
		}
	}
	return next
}

// Utilization returns the fraction of the last 1024 cycles (ending at
// `now`) the link spent serializing. The read lazily accounts serialization
// through now-1 first — the state a per-cycle caller would observe before
// this cycle's Tick — so reads at arbitrary cycles are exact even when the
// link has not been advanced for a while.
func (l *Link) Utilization(now int64) float64 {
	l.account(now - 1)
	return l.busWindow.utilization(now)
}

// Snapshot is a point-in-time view of a link's counters, for the
// observability layer's periodic sampling.
type Snapshot struct {
	BytesSent   uint64
	PacketsSent uint64
	BusyCycles  uint64
	Queued      int     // packets not yet fully serialized
	Utilization float64 // sliding-window busy fraction
}

// Snapshot captures the link's counters and occupancy as of the start of
// cycle `now` (serialization accounted through now-1, matching what a
// per-cycle caller sees before this cycle's Tick).
func (l *Link) Snapshot(now int64) Snapshot {
	l.account(now - 1)
	return Snapshot{
		BytesSent:   l.BytesSent,
		PacketsSent: l.PacketsSent,
		BusyCycles:  l.BusyCycles,
		Queued:      l.queue.len(),
		Utilization: l.busWindow.utilization(now),
	}
}

// Busy reports whether recent utilization exceeds threshold — the Channel
// Busy Monitor's output (§3.3, §4.2 dynamic decision step 2).
func (l *Link) Busy(threshold float64, now int64) bool {
	return l.Utilization(now) > threshold
}

// busyMonitor tracks utilization over a power-of-two sliding window using
// coarse buckets. Time advances lazily: reads (utilization) and bulk
// writes (addSpan) expire the sub-windows between the last touch and the
// cycle in hand, so a link that skips idle or even busy cycles reads
// identically to one recorded every cycle.
const (
	busyWindow   = 1024 // sliding-window length in cycles
	busySubShift = 7    // log2(window / #buckets): 1024/8 = 128-cycle buckets
)

type busyMonitor struct {
	buckets [8]int64 // busy-cycle counts per sub-window
	lastSub int64
}

func newBusyMonitor() busyMonitor {
	return busyMonitor{lastSub: -1}
}

// advance expires sub-windows between lastSub and the one containing now
// (bounded: a gap of a full window clears everything). Power-of-two window
// and bucket sizes keep this shift-and-mask only.
func (m *busyMonitor) advance(now int64) {
	sub := now >> busySubShift
	if sub == m.lastSub {
		return
	}
	n := int64(len(m.buckets))
	if sub-m.lastSub >= n {
		for i := range m.buckets {
			m.buckets[i] = 0
		}
	} else {
		for s := m.lastSub + 1; s <= sub; s++ {
			m.buckets[s&(n-1)] = 0
		}
	}
	m.lastSub = sub
}

// addSpan marks every cycle in [a, b] busy — the bulk equivalent of
// calling a per-cycle record for each. A read may already have advanced
// lastSub past part of the span (reads happen earlier in a cycle than link
// advances): sub-windows still inside the sliding window receive their
// counts without rewinding lastSub, and sub-windows that have already
// expired are skipped entirely — their cycles would have been recorded and
// then expired by a per-cycle caller, contributing nothing.
func (m *busyMonitor) addSpan(a, b int64) {
	n := int64(len(m.buckets))
	for s := a >> busySubShift; s <= b>>busySubShift; s++ {
		if s <= m.lastSub-n {
			continue // expired before this accounting ran
		}
		lo := s << busySubShift
		hi := lo + (1 << busySubShift) - 1
		if lo < a {
			lo = a
		}
		if hi > b {
			hi = b
		}
		if s > m.lastSub {
			m.advance(lo)
		}
		m.buckets[s&(n-1)] += hi - lo + 1
	}
}

func (m *busyMonitor) utilization(now int64) float64 {
	m.advance(now)
	var busy int64
	for _, b := range m.buckets {
		busy += b
	}
	return float64(busy) / float64(busyWindow)
}
