package sim

import (
	"math/bits"

	"repro/internal/isa"
)

// txn is one line-granularity memory transaction emitted by an SM's LSU
// after coalescing: a load of a full cache line, or a write-through store
// of the dirty bytes within one line.
type txn struct {
	line  uint64 // line-aligned byte address
	bytes int    // store payload bytes (0 for loads)
	store bool
	atom  bool
	// Completion target, typed instead of a per-txn closure so issuing a
	// memory instruction allocates only the txn itself: the issuing SM,
	// plus the warp and destination register for store/atomic acks.
	sm  *SM
	sw  *smWarp
	reg isa.Reg
}

// newTxn takes a transaction from the System's free list.
func (sys *System) newTxn(v txn) *txn {
	t := sys.txns.get()
	*t = v
	return t
}

// complete delivers the load data (or store ack) back to the issuing SM and
// ends the transaction's life: by now it has left the LSU queue, the L2 bank
// queue, the L2 MSHR, its wheel event and its flight, one after the other,
// so nothing else refers to it. It is zeroed on the way back so that a use
// after this point fails loudly instead of acting on a stale target.
func (t *txn) complete(now int64) {
	sm := t.sm
	sm.sys.inflight--
	if t.store {
		sm.storeAck(t.sw, now)
		if t.atom {
			sm.regClear(t.sw, t.reg, now)
		}
	} else {
		sm.fill(t.line, now)
	}
	*t = txn{}
	sm.sys.txns.put(t)
}

// Packet size constants (bytes). The paper normalizes address/data/register
// words to 4 B with acks a quarter of that; on the wire we add a 16 B
// header per request/response, 128 B lines, and 4 B per live register lane.
//
// Offload request AND acknowledgment both carry offloadHdrBytes: §4.4.2's
// protocol returns the live-out registers and dirty-line list to a specific
// requesting warp, so the ack needs the same warp identity + region (PCs,
// active mask) fields the request carries — not just the generic 16 B
// transaction header. The compiler's eq. (3)/(4) cost model (internal/
// compiler/cost.go) counts only the per-register and per-line payload units
// and carries no header constant, so this wire-level choice does not feed
// back into candidate selection.
const (
	reqHeaderBytes  = 16
	lineRespExtra   = 16 // header on a data response
	storeAckBytes   = 4
	offloadHdrBytes = 32 // begin/end PC, active mask, warp identity (request & ack)
	regLaneBytes    = 4
	dirtyAddrBytes  = 8
)

// wstate is an smWarp's scheduling state.
type wstate uint8

const (
	wsReady wstate = iota
	wsWaitDep
	wsWaitLSU
	wsAtBarrier
	wsWaitDrain   // waiting for store acks (barrier entry / offload / retire)
	wsWaitOffload // region shipped to a memory stack; waiting for the ack
	wsRetired
)

// bitset is a small dense bitset for warp readiness (stack SMs can hold
// 4x48 = 192 warps in the §6.4 study). nz counts nonzero words so any()
// — runnableNow's probe, called for every SM the event loop ticks on
// every cycle — is a field read instead of a scan.
type bitset struct {
	w  []uint64
	nz int
}

func newBitset(n int) bitset { return bitset{w: make([]uint64, (n+63)/64)} }

func (b *bitset) set(i int) {
	w := &b.w[i>>6]
	if *w == 0 {
		b.nz++
	}
	*w |= 1 << (i & 63)
}

func (b *bitset) clear(i int) {
	w := &b.w[i>>6]
	if *w == 0 {
		return
	}
	*w &^= 1 << (i & 63)
	if *w == 0 {
		b.nz--
	}
}

func (b *bitset) get(i int) bool { return b.w[i>>6]&(1<<(i&63)) != 0 }
func (b *bitset) any() bool      { return b.nz > 0 }

// first returns the lowest set index, or -1.
func (b *bitset) first() int { return wakeSet(b.w).next(0, len(b.w)*64) }

// wakeSet is a fixed-size set of component indices — SMs, vaults, L2 banks —
// that hold work the event-driven loop must visit (DESIGN.md "Wake sets").
// All of a System's sets are sized once, in New.
type wakeSet []uint64

func newWakeSet(n int) wakeSet { return make(wakeSet, (n+63)/64) }

func (s wakeSet) set(i int)   { s[i>>6] |= 1 << (i & 63) }
func (s wakeSet) clear(i int) { s[i>>6] &^= 1 << (i & 63) }

func (s wakeSet) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// next returns the lowest member in [from, to), or -1. It reads the live
// words on every call, so the walk
//
//	for i := s.next(lo, hi); i >= 0; i = s.next(i+1, hi)
//
// visits members in ascending order — the per-cycle loop's order — and
// sees a member that the visit of a lower one added.
func (s wakeSet) next(from, to int) int {
	for from < to {
		if w := s[from>>6] >> (from & 63); w != 0 {
			if i := from + bits.TrailingZeros64(w); i < to {
				return i
			}
			return -1
		}
		from = (from>>6 + 1) << 6
	}
	return -1
}
