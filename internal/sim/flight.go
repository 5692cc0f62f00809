package sim

import (
	"repro/internal/dram"
	"repro/internal/link"
	"repro/internal/mapping"
)

func packetOf(bytes int, deliver func(now int64)) link.Packet {
	return link.Packet{Bytes: bytes, Deliver: deliver}
}

// flightKind is the path an off-SM memory request travels.
type flightKind uint8

const (
	flGPU    flightKind = iota // main GPU: TX link → crossbar+vault → RX link
	flPCIe                     // learning phase (§4.3 step 2): PCI-E to CPU memory and back
	flLocal                    // stack SM, own stack: crossbar+vault only
	flRemote                   // stack SM, other stack: cross link → crossbar+vault → cross link back
)

// flight is one request travelling between an SM's side of the memory
// system and DRAM: an L2 miss (t nil; its arrival fills the L2 and wakes
// every merged waiter), a write-through store leaving the L2, or a stack
// SM's access. It carries its continuation as data — links and vaults call
// back into deliver and req.Done, which are bound to the record once, when
// it is first created, and survive recycling — so a request in flight costs
// no closures and, in steady state, no allocation.
type flight struct {
	sys  *System
	kind flightKind
	back bool // the response leg is under way
	line uint64
	t    *txn
	at   mapping.Place // where line lives: serving stack and vault (unused by flPCIe)
	from int           // requesting stack (flRemote)

	req dram.Request // Done is done; set when the request reaches its stack

	deliver func(now int64) // fl.delivered
	done    func(now int64) // fl.vaultDone
}

func (sys *System) newFlight(kind flightKind, line uint64, t *txn, at mapping.Place, from int) *flight {
	fl := sys.flights.get()
	if fl.deliver == nil {
		fl.deliver, fl.done = fl.delivered, fl.vaultDone
	}
	*fl = flight{sys: sys, kind: kind, line: line, t: t, at: at, from: from,
		deliver: fl.deliver, done: fl.done}
	return fl
}

// isStore reports a write-through store or atomic (loads have t nil on the
// GPU side and a load txn on a stack SM).
func (fl *flight) isStore() bool { return fl.t != nil && fl.t.store }

// route sends a request leaving the L2 toward memory — an L2 miss of line
// (t nil) or the write-through store t: to the owning stack's vault, or to
// CPU memory over PCI-E during the learning phase.
func (sys *System) route(line uint64, t *txn, now int64) {
	reqBytes := reqHeaderBytes
	if t != nil {
		reqBytes += t.bytes
	}
	if sys.learning {
		fl := sys.newFlight(flPCIe, line, t, mapping.Place{}, -1)
		sys.pcieTX.Send(packetOf(reqBytes, fl.deliver), now)
		return
	}
	fl := sys.newFlight(flGPU, line, t, sys.place(line), -1)
	sys.txLinks[fl.at.Stack].Send(packetOf(reqBytes, fl.deliver), now)
}

// respBytes sizes the response packet: a line of data for a load, a short
// ack for a store.
func (fl *flight) respBytes() int {
	switch {
	case !fl.isStore():
		return fl.sys.cfg.LineBytes + lineRespExtra
	case fl.kind == flGPU && fl.t.atom:
		return reqHeaderBytes // atomics return the old value
	default:
		return storeAckBytes
	}
}

// delivered is the link callback of both legs: the request reaching the
// memory side, then the response reaching the requester, where the flight
// ends.
func (fl *flight) delivered(now int64) {
	sys := fl.sys
	switch {
	case fl.back:
		if fl.t != nil {
			fl.t.complete(now)
		} else {
			sys.l2fill(fl.line, now)
		}
		sys.flights.put(fl)
	case fl.kind == flPCIe:
		fl.back = true
		sys.pcieRX.Send(packetOf(fl.respBytes(), fl.deliver), now)
	default:
		sys.stacks[fl.at.Stack].serveLine(fl, now)
	}
}

// vaultDone is the DRAM callback: the burst completed, the response leaves
// the stack. A stack SM's access to its own stack has no link to cross and
// ends here.
func (fl *flight) vaultDone(now int64) {
	sys := fl.sys
	switch fl.kind {
	case flGPU:
		fl.back = true
		sys.rxLinks[fl.at.Stack].Send(packetOf(fl.respBytes(), fl.deliver), now)
	case flRemote:
		fl.back = true
		sys.crossLinks[fl.at.Stack][fl.from].Send(packetOf(fl.respBytes(), fl.deliver), now)
	case flLocal:
		sys.wheel.afterEvent(2, wheelEvent{kind: wevTxnDone, t: fl.t})
		sys.flights.put(fl)
	}
}
