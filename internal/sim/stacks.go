package sim

import (
	"math"

	"repro/internal/dram"
	"repro/internal/mapping"
)

// stackNode is one 3D memory stack: a crossbar in front of 16 FR-FCFS
// vaults, plus one or more logic-layer SMs (Table 1 uses one; the paper's
// architecture permits more).
type stackNode struct {
	id     int
	sys    *System
	vaults []*dram.Vault
	busy   wakeSet // vaults holding queued requests or bursts in flight
	// due is the earliest NextEvent over the busy vaults, math.MaxInt64 when
	// none: before it no vault of the stack has work. An enqueue lowers it;
	// the event loop's vault walk, which runs only once it is reached,
	// recomputes it.
	due    int64
	sms    []*SM
	nextSM int // round-robin spawn target
}

// spawnTarget picks the logic-layer SM with the most free warp slots,
// ties broken round-robin: the scan starts at the rotating index (so an
// all-equal tie picks each SM in turn, not always the lowest index) and
// the rotation advances past the SM actually chosen.
func (s *stackNode) spawnTarget() *SM {
	n := len(s.sms)
	start := s.nextSM % n
	best := start
	for i := 1; i < n; i++ {
		if c := (start + i) % n; s.sms[c].freeSlots > s.sms[best].freeSlots {
			best = c
		}
	}
	s.nextSM = best + 1
	return s.sms[best]
}

func newStack(sys *System, id int) *stackNode {
	s := &stackNode{id: id, sys: sys, vaults: make([]*dram.Vault, 0, mapping.Vaults),
		busy: newWakeSet(mapping.Vaults), due: math.MaxInt64}
	t := dram.DefaultTiming()
	t.BytesPerCycle = sys.cfg.VaultBW * sys.cfg.InternalBWRatio
	for range mapping.Vaults {
		s.vaults = append(s.vaults, dram.NewVault(t))
	}
	return s
}

// serveLine routes a flight's request through the crossbar into its vault
// (fl.at.Vault), retrying while the vault queue is full; the vault calls
// fl.done when the DRAM burst completes.
func (s *stackNode) serveLine(fl *flight, now int64) {
	bytes := s.sys.cfg.LineBytes
	if fl.isStore() && fl.t.bytes > 0 {
		bytes = fl.t.bytes
	}
	fl.req = dram.Request{Addr: fl.line, Bytes: bytes, Write: fl.isStore(), Done: fl.done}
	s.sys.wheel.afterEvent(s.sys.cfg.XbarLat, wheelEvent{kind: wevVaultTry, fl: fl})
}

// tick advances the stack's vaults, then its SMs. The per-cycle loop ticks
// every active vault and every SM; the event-driven loop (elide) visits only
// the members of the wake sets, in the same order.
func (s *stackNode) tick(now int64, elide bool) {
	if !elide {
		for _, v := range s.vaults {
			if v.Active() {
				v.Tick(now)
			}
		}
		for _, sm := range s.sms {
			sm.tick(now)
		}
		return
	}
	if now >= s.due {
		n := len(s.vaults)
		due := int64(math.MaxInt64)
		for i := s.busy.next(0, n); i >= 0; i = s.busy.next(i+1, n) {
			// A vault whose horizon is in the future has nothing to do this
			// cycle: no completion is due and issue arbitration cannot
			// accept a request (bank busy or bus backed up).
			v := s.vaults[i]
			if v.NextEvent() <= now {
				v.Tick(now)
				if !v.Active() {
					s.busy.clear(i)
					continue
				}
			}
			due = minEvent(due, v.NextEvent())
		}
		s.due = due
	}
	lo := s.sys.cfg.MainSMs + s.id*len(s.sms)
	s.sys.tickRunnable(lo, lo+len(s.sms), now)
}

// minEvent folds a component horizon into a running minimum; t < 0 means the
// component holds nothing.
func minEvent(due, t int64) int64 {
	if t >= 0 && t < due {
		return t
	}
	return due
}

func (s *stackNode) active() bool {
	for _, v := range s.vaults {
		if v.Active() {
			return true
		}
	}
	return false
}

// stackPort is the logic-layer SM's memory port: local addresses hit the
// stack's own vaults directly (internal TSV bandwidth, no off-chip link);
// remote addresses cross the stack-to-stack links (§5: remote data access).
type stackPort struct {
	node *stackNode
}

// accept implements memPort.
func (p *stackPort) accept(now int64, t *txn) bool {
	sys := p.node.sys
	at := sys.place(t.line)
	if sys.forceColocate() {
		at.Stack = p.node.id
	}
	if at.Stack == p.node.id {
		// Local: crossbar + vault only.
		p.node.serveLine(sys.newFlight(flLocal, t.line, t, at, -1), now)
		return true
	}
	// Remote: request over the cross-stack link, response back.
	fl := sys.newFlight(flRemote, t.line, t, at, p.node.id)
	sys.crossLinks[fl.from][fl.at.Stack].Send(packetOf(reqHeaderBytes+t.bytes, fl.deliver), now)
	return true
}
