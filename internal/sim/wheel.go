package sim

import "repro/internal/isa"

// The wheel is the simulator's one timer: a timer wheel whose slots hold
// typed events. The hot schedulers (warp wake-ups after a pipeline latency,
// L1-hit returns, offload pipeline, L2 routing, vault crossbar retries) file
// small value structs instead of closures. Its horizon — the number of
// slots — comes from the Config (wheelHorizonFor): the smallest power of two
// above every fixed delay the model files, 128 cycles by default. Delays at
// or beyond the horizon land in an overflow bucket and are re-filed into the
// wheel once they come within range — a long modeled latency (a warp's
// wake-up after a long invalidation, scaled PCIe, future LLM-workload
// delays) is an input condition, not a model bug.
//
// Events live in one slab of nodes; a slot is the head and tail index of a
// singly linked FIFO threaded through the slab, and fired nodes go onto a
// free list. The slab therefore grows to the peak number of events pending
// at once and no further — not to horizon slots × each slot's own peak —
// and a fresh System pays no per-slot warm-up.
type wheel struct {
	sys      *System
	slots    []wheelSlot // horizon entries, a power of two
	mask     int64       // horizon - 1
	nodes    []wheelNode
	free     int32 // head of the free-node list, noNode when empty
	now      int64
	count    int
	overflow []farEvent // due >= now+horizon; re-filed once in range
}

const noNode int32 = -1

// Fixed retry delays filed on the wheel (cycles).
const (
	lsuRetryDelay   = 8 // an MSHR-full load/store unit retries
	vaultRetryDelay = 4 // a crossbar delivery retries a full vault queue
)

// wheelHorizonFor sizes the wheel for cfg: the smallest power of two above
// every fixed delay the model files on it — the L1, L2 and crossbar
// latencies, the pipeline latencies a warp waits out after issue, the
// offload pipeline (or the policy's spawn latency, which replaces it) and
// the fixed retries. A dynamic delay beyond it (a warp's wake-up after a
// long invalidation) takes the overflow path.
func wheelHorizonFor(cfg Config, spawnLat int64) int {
	d := max(cfg.L1Lat, cfg.L2Lat, cfg.XbarLat, cfg.ALULat, cfg.FPLat, cfg.DivLat, cfg.SharedLat,
		cfg.OffloadPipeLat, spawnLat, lsuRetryDelay, vaultRetryDelay)
	h := 1
	for int64(h) <= d {
		h <<= 1
	}
	return h
}

// wheelSlot is one due cycle's FIFO: events fire in the order filed.
type wheelSlot struct{ head, tail int32 }

type wheelNode struct {
	ev   wheelEvent
	next int32
}

// Event kinds. The three warp kinds (sw set) carry the gen of the warp's
// life that filed them and are dropped if that life has ended. wevProbe
// hands the event to System.probe, the wheel tests' hook.
const (
	wevProbe         uint8 = iota // sys.probe(ev, now)
	wevReconsider                 // sw.sm.reconsider(sw, now): warp wake-up after its latency
	wevRegClear                   // sw.sm.regClear(sw, reg, now): an L1 hit returns
	wevLSURetry                   // MSHR-full retry: re-ready sw if still stalled
	wevSendOffload                // offload pipeline done: send job's request packet
	wevFinishOffload              // ideal-mode ack: resume job's requesting warp
	wevRoute                      // an L2 miss of `line` (t nil) or a write-through store t leaves the L2
	wevVaultTry                   // crossbar delivery: enqueue fl's request into its vault (retry on full)
	wevTxnDone                    // t.complete(now): load data / store ack reaches the SM
)

// wheelEvent is one scheduled occurrence. Exactly the fields its kind
// needs are set; the struct is stored by value in the slab.
type wheelEvent struct {
	kind uint8
	reg  isa.Reg // wevRegClear; reg and gen pack beside kind
	gen  uint32  // the warp kinds: sw's life (smWarp.gen) when filed
	sw   *smWarp
	job  *offloadJob
	t    *txn
	fl   *flight
	line uint64
}

type farEvent struct {
	at int64
	ev wheelEvent
}

// newWheel makes an empty wheel of horizon slots; horizon must be a power
// of two.
func newWheel(sys *System, horizon int) *wheel {
	w := &wheel{sys: sys, slots: make([]wheelSlot, horizon), mask: int64(horizon - 1), free: noNode}
	for i := range w.slots {
		w.slots[i] = wheelSlot{head: noNode, tail: noNode}
	}
	return w
}

// afterEvent schedules ev to run at now+delay (delay >= 1). Delays at or
// beyond the wheel horizon go to the overflow bucket.
func (w *wheel) afterEvent(delay int64, ev wheelEvent) {
	if delay < 1 {
		delay = 1
	}
	w.count++
	if delay > w.mask {
		w.overflow = append(w.overflow, farEvent{at: w.now + delay, ev: ev})
		return
	}
	w.file(w.now+delay, ev)
}

// file appends ev to the FIFO of the slot for cycle `at`.
func (w *wheel) file(at int64, ev wheelEvent) {
	n := w.free
	if n != noNode {
		w.free = w.nodes[n].next
		w.nodes[n] = wheelNode{ev: ev, next: noNode}
	} else {
		n = int32(len(w.nodes))
		w.nodes = append(w.nodes, wheelNode{ev: ev, next: noNode})
	}
	s := &w.slots[at&w.mask]
	if s.head == noNode {
		s.head = n
	} else {
		w.nodes[s.tail].next = n
	}
	s.tail = n
}

// tick runs events due at cycle `now`. The run loop calls it once per
// cycle, with now increasing by one each time: a skipped cycle would leave
// its slot's events unfired until the wheel came round again.
func (w *wheel) tick(now int64) {
	w.now = now
	if len(w.overflow) > 0 {
		w.refileOverflow(now)
	}
	s := &w.slots[now&w.mask]
	n := s.head
	*s = wheelSlot{head: noNode, tail: noNode}
	for n != noNode {
		// Copy the event out and free its node before running it: the
		// handler may file further events, which can reuse the node or grow
		// (and so move) the slab. Nothing it files can land in this slot —
		// delays are in [1, horizon) — so the detached chain is stable.
		node := &w.nodes[n]
		ev, next := node.ev, node.next
		*node = wheelNode{next: w.free}
		w.free = n
		w.count--
		w.sys.runEvent(&ev, now)
		n = next
	}
}

// refileOverflow moves far-future events that came within the horizon into
// their wheel slots, preserving insertion order (determinism).
func (w *wheel) refileOverflow(now int64) {
	kept := w.overflow[:0]
	for _, fe := range w.overflow {
		if fe.at-now <= w.mask {
			w.file(fe.at, fe.ev)
		} else {
			kept = append(kept, fe)
		}
	}
	clear(w.overflow[len(kept):])
	w.overflow = kept
}

// pending reports scheduled-but-unfired events (overflow included).
func (w *wheel) pending() int { return w.count }
