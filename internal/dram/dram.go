// Package dram models the 3D-stacked DRAM of one memory stack: per-vault
// FR-FCFS scheduling over banks with open-row tracking, DDR3-like timing,
// and a TSV data-bus bandwidth budget per vault (Table 1: 16 vaults/stack,
// 16 banks/vault, 64 TSVs/vault at 1.25 Gb/s ≈ 10 GB/s per vault).
//
// Requests queue per bank, in arrival order tagged with a global sequence
// number, so FR-FCFS arbitration is an O(banks) pick over bank heads (plus
// a short in-bank scan for the oldest open-row hit) instead of a scan of
// the whole queue — and NextEvent can report the exact first cycle any
// queued request can issue, letting the event-driven loop leave the vault
// untouched on the cycles in between.
package dram

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/mapping"
)

// Timing collects the vault timing parameters, in core cycles. The geometry
// (mapping.Banks banks per vault, mapping.RowBytes rows) is Table 1's,
// decoded by mapping.Decode.
type Timing struct {
	TCL           int64   // column access (row hit) latency
	TRCD          int64   // activate-to-read
	TRP           int64   // precharge
	BytesPerCycle float64 // TSV data-bus bandwidth per vault
	QueueDepth    int
}

// DefaultTiming mirrors Table 1 / DDR3-1600 in 1.4 GHz core cycles.
func DefaultTiming() Timing {
	return Timing{
		TCL:           20, // ~13.75 ns
		TRCD:          20,
		TRP:           19,
		BytesPerCycle: 7.14, // 10 GB/s at 1.4 GHz
		QueueDepth:    32,
	}
}

// Request is one line-granularity DRAM access.
type Request struct {
	Addr  uint64
	Bytes int
	Write bool
	// Done runs when the data burst completes.
	Done func(now int64)

	// bank, row, and seq are assigned at Enqueue: bank/row so arbitration
	// indexes directly instead of re-deriving them, seq (global arrival
	// order) so the per-bank queues can reconstruct FR-FCFS's "oldest
	// first" exactly as the former single arrival-ordered queue did.
	bank int
	row  uint64
	seq  uint64
}

// Vault.occ holds one bit per bank: this constant overflows, failing the
// build, if mapping.Banks outgrows it.
const _ uint64 = 1 << (mapping.Banks - 1)

type bank struct {
	openRow   uint64
	hasRow    bool
	busyUntil int64
	queue     []*Request // this bank's waiting requests, arrival order
}

type completion struct {
	at   int64
	done func(now int64)
}

// Vault is one vault: per-bank request queues, banks, and a TSV data bus.
type Vault struct {
	t         Timing
	banks     [mapping.Banks]bank
	occ       uint64 // bit b set iff banks[b].queue is non-empty
	queued    int    // total waiting requests across all bank queues
	seq       uint64
	busFreeAt int64
	drainGap  int64 // bus-drain backpressure point: no issue while busFreeAt > now + drainGap
	compl     []completion

	// Memoized NextEvent result. The horizon is an absolute cycle, so it
	// stays valid as time passes; it is invalidated whenever the inputs
	// change (enqueue, issue, completion pop).
	horizon      int64
	horizonValid bool

	// Stats.
	Activations uint64
	RowHits     uint64
	Reads       uint64
	Writes      uint64
	BytesMoved  uint64
}

// NewVault creates a vault with the given timing.
func NewVault(t Timing) *Vault {
	return &Vault{t: t, drainGap: int64(4 * float64(t.TCL))}
}

// Full reports whether the request queue is at capacity.
func (v *Vault) Full() bool { return v.queued >= v.t.QueueDepth }

// Enqueue adds a request; returns false if the queue is full.
func (v *Vault) Enqueue(r *Request) bool {
	if v.Full() {
		return false
	}
	pl := mapping.Decode(r.Addr, mapping.Interleave) // bank and row do not depend on the stack mapping
	r.bank, r.row = pl.Bank, pl.Row
	r.seq = v.seq
	v.seq++
	v.banks[r.bank].queue = append(v.banks[r.bank].queue, r)
	v.occ |= 1 << r.bank
	v.queued++
	v.horizonValid = false
	return true
}

// Active reports whether the vault has pending work.
func (v *Vault) Active() bool { return v.queued > 0 || len(v.compl) > 0 }

// NextEvent returns the next cycle this vault does observable work: the
// earliest of the next burst completion and the first cycle issue
// arbitration can actually accept a queued request — the first cycle some
// queued bank is free AND the data bus has drained below the backpressure
// point. Any value at or before the caller's current cycle means "ready
// now"; -1 means idle. Between the returned cycle and now the vault is
// provably inert, so the event-driven loop need not tick it before then.
func (v *Vault) NextEvent() int64 {
	if !v.horizonValid {
		v.horizon = v.computeHorizon()
		v.horizonValid = true
	}
	return v.horizon
}

func (v *Vault) computeHorizon() int64 {
	next := int64(-1)
	if len(v.compl) > 0 {
		next = v.compl[0].at
	}
	if v.queued > 0 {
		// Earliest possible issue: the first cycle c with some queued
		// bank's busyUntil <= c and busFreeAt <= c + drainGap. Bank state
		// and busFreeAt only change at issues and enqueues, both of which
		// invalidate this memo, so the bound is exact, not conservative.
		earliest := int64(math.MaxInt64)
		for m := v.occ; m != 0; m &= m - 1 {
			if b := &v.banks[bits.TrailingZeros64(m)]; b.busyUntil < earliest {
				earliest = b.busyUntil
			}
		}
		if drain := v.busFreeAt - v.drainGap; drain > earliest {
			earliest = drain
		}
		if next < 0 || earliest < next {
			next = earliest
		}
	}
	return next
}

// Snapshot is a point-in-time view of a vault's counters and occupancy,
// for the observability layer's periodic sampling.
type Snapshot struct {
	Activations uint64
	RowHits     uint64
	Reads       uint64
	Writes      uint64
	BytesMoved  uint64
	Queued      int // waiting requests
	InFlight    int // issued bursts not yet completed
}

// Snapshot captures the vault's current counters and occupancy.
func (v *Vault) Snapshot() Snapshot {
	return Snapshot{
		Activations: v.Activations,
		RowHits:     v.RowHits,
		Reads:       v.Reads,
		Writes:      v.Writes,
		BytesMoved:  v.BytesMoved,
		Queued:      v.queued,
		InFlight:    len(v.compl),
	}
}

// Tick issues at most one request per cycle (FR-FCFS: oldest row-hit to a
// free bank first, else oldest to a free bank) and fires completions.
// "Oldest" is global arrival order: within a bank the queue is already
// arrival-ordered, and the seq tags order candidates across banks, so the
// pick visits each bank once instead of scanning one global queue twice.
func (v *Vault) Tick(now int64) {
	for len(v.compl) > 0 && v.compl[0].at <= now {
		// Copy down rather than re-slice the head away: the list is a
		// handful of bursts long, and re-slicing burns its capacity so a
		// busy vault reallocates forever. Delete zeroes the vacated slot, so
		// the fired callback is not retained.
		c := v.compl[0]
		v.compl = slices.Delete(v.compl, 0, 1)
		v.horizonValid = false
		if c.done != nil {
			c.done(now)
		}
	}
	if v.queued == 0 || v.busFreeAt > now+v.drainGap {
		// Data bus hopelessly backed up: let it drain.
		return
	}
	var pick *Request
	pickBank, pickIdx := -1, -1
	for m := v.occ; m != 0; m &= m - 1 { // first-ready row hit: oldest open-row hit over free banks
		i := bits.TrailingZeros64(m)
		b := &v.banks[i]
		if b.busyUntil > now || !b.hasRow {
			continue
		}
		for qi, r := range b.queue {
			if r.row == b.openRow {
				if pick == nil || r.seq < pick.seq {
					pick, pickBank, pickIdx = r, i, qi
				}
				break
			}
		}
	}
	if pick == nil {
		for m := v.occ; m != 0; m &= m - 1 { // oldest to a free bank: min seq over bank heads
			i := bits.TrailingZeros64(m)
			b := &v.banks[i]
			if b.busyUntil > now {
				continue
			}
			if r := b.queue[0]; pick == nil || r.seq < pick.seq {
				pick, pickBank, pickIdx = r, i, 0
			}
		}
	}
	if pick == nil {
		return
	}
	b := &v.banks[pickBank]
	b.queue = slices.Delete(b.queue, pickIdx, pickIdx+1)
	if len(b.queue) == 0 {
		v.occ &^= 1 << pickBank
	}
	v.queued--
	v.horizonValid = false
	r := pick
	var lat int64
	if b.hasRow && b.openRow == r.row {
		lat = v.t.TCL
		v.RowHits++
	} else {
		lat = v.t.TRP + v.t.TRCD + v.t.TCL
		v.Activations++
		b.openRow, b.hasRow = r.row, true
	}
	var burst int64
	if r.Bytes > 0 {
		burst = int64(math.Ceil(float64(r.Bytes) / v.t.BytesPerCycle))
	}
	start := now + lat
	if v.busFreeAt > start {
		start = v.busFreeAt
	}
	end := start + burst
	v.busFreeAt = end
	b.busyUntil = end
	if r.Write {
		v.Writes++
	} else {
		v.Reads++
	}
	v.BytesMoved += uint64(r.Bytes)
	v.compl = append(v.compl, completion{at: end, done: r.Done})
	// Keep completions sorted (insertion is near-append: ends increase
	// except when bank latencies differ).
	for i := len(v.compl) - 1; i > 0 && v.compl[i].at < v.compl[i-1].at; i-- {
		v.compl[i], v.compl[i-1] = v.compl[i-1], v.compl[i]
	}
}
