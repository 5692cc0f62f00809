package sim

import (
	"repro/internal/cache"
)

// l2sys is the GPU-side shared L2: banked by line address, write-through,
// write-no-allocate, with MSHR merging. Misses travel over the per-stack TX
// links (or the PCI-E path during the learning phase) and fills return on
// the RX links.
type l2sys struct {
	sys   *System
	banks []*l2bank
	busy  wakeSet // banks with queued transactions
}

type l2bank struct {
	tags  *cache.Cache
	queue []*txn
	sys   *System
}

type l2entry struct {
	waiters []*txn
}

func newL2(sys *System) *l2sys {
	c := sys.cfg
	l2 := &l2sys{sys: sys, banks: make([]*l2bank, 0, c.L2Banks), busy: newWakeSet(c.L2Banks)}
	for i := 0; i < c.L2Banks; i++ {
		l2.banks = append(l2.banks, &l2bank{
			tags: cache.New(c.L2Bytes/c.L2Banks, c.L2Ways, c.LineBytes),
			sys:  sys,
		})
	}
	return l2
}

func (l2 *l2sys) bankIndex(line uint64) int {
	return int((line >> 7) % uint64(len(l2.banks)))
}

func (l2 *l2sys) bankOf(line uint64) *l2bank { return l2.banks[l2.bankIndex(line)] }

// accept implements memPort for main-GPU SMs.
func (l2 *l2sys) accept(now int64, t *txn) bool {
	i := l2.bankIndex(t.line)
	b := l2.banks[i]
	if len(b.queue) >= l2.sys.cfg.L2BankQueue {
		return false
	}
	b.queue = append(b.queue, t)
	l2.busy.set(i)
	return true
}

// invalidate drops a line from the L2 (offload coherence).
func (l2 *l2sys) invalidate(line uint64) {
	l2.bankOf(line).tags.Invalidate(line)
}

func (l2 *l2sys) invalidateAll() {
	for _, b := range l2.banks {
		b.tags.InvalidateAll()
	}
}

// tick advances every bank (per-cycle loop) or, with elide, only the banks
// in the busy set, dropping a bank from it when its queue empties.
func (l2 *l2sys) tick(now int64, elide bool) {
	if !elide {
		for _, b := range l2.banks {
			b.tick(now)
		}
		return
	}
	n := len(l2.banks)
	for i := l2.busy.next(0, n); i >= 0; i = l2.busy.next(i+1, n) {
		b := l2.banks[i]
		b.tick(now)
		if len(b.queue) == 0 {
			l2.busy.clear(i)
		}
	}
}

// queuedTxns counts transactions waiting in bank queues (sampled by the
// observability layer alongside the MSHR occupancy).
func (l2 *l2sys) queuedTxns() int {
	n := 0
	for _, b := range l2.banks {
		n += len(b.queue)
	}
	return n
}

func (l2 *l2sys) active() bool {
	for _, b := range l2.banks {
		if len(b.queue) > 0 {
			return true
		}
	}
	return len(l2.sys.l2mshr) > 0
}

func (b *l2bank) tick(now int64) {
	if len(b.queue) == 0 {
		return
	}
	sys := b.sys
	t := b.queue[0]
	if t.store {
		// Write-through: refresh LRU if present, always forward.
		b.tags.Lookup(t.line)
		n := copy(b.queue, b.queue[1:])
		b.queue = b.queue[:n]
		sys.wheel.afterEvent(sys.cfg.L2Lat/3, wheelEvent{kind: wevRoute, line: t.line, t: t})
		return
	}
	// Load.
	if e, merged := sys.l2mshr[t.line]; merged {
		e.waiters = append(e.waiters, t)
		n := copy(b.queue, b.queue[1:])
		b.queue = b.queue[:n]
		sys.stats.L2Hits++ // merged under an outstanding fill
		return
	}
	if b.tags.Lookup(t.line) {
		sys.stats.L2Hits++
		n := copy(b.queue, b.queue[1:])
		b.queue = b.queue[:n]
		sys.wheel.afterEvent(sys.cfg.L2Lat, wheelEvent{kind: wevTxnDone, t: t})
		return
	}
	if len(sys.l2mshr) >= sys.cfg.L2MSHRs {
		return // head-of-line block until an MSHR frees
	}
	sys.stats.L2Misses++
	n := copy(b.queue, b.queue[1:])
	b.queue = b.queue[:n]
	e := sys.l2entries.get()
	*e = l2entry{waiters: append(e.waiters[:0], t)}
	sys.l2mshr[t.line] = e
	sys.wheel.afterEvent(sys.cfg.L2Lat/3, wheelEvent{kind: wevRoute, line: t.line})
}

// l2fill completes an outstanding L2 miss: install the tag and wake every
// merged waiter.
func (sys *System) l2fill(line uint64, now int64) {
	e := sys.l2mshr[line]
	if e == nil {
		return
	}
	delete(sys.l2mshr, line)
	sys.l2.bankOf(line).tags.Fill(line)
	for _, t := range e.waiters {
		t.complete(now)
	}
	sys.l2entries.put(e)
}
