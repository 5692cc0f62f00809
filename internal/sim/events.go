package sim

import "repro/internal/isa"

// runEvent dispatches one typed wheel event. The schedule sites (L2
// routing, crossbar→vault delivery, offload pipeline, warp wakeups) encode
// their continuation in wheelEvent fields instead of closures, so filing
// and firing them allocates nothing.
func (sys *System) runEvent(ev *wheelEvent, now int64) {
	if ev.sw != nil && ev.sw.gen != ev.gen {
		return // a warp event for a life of sw that has ended
	}
	switch ev.kind {
	case wevProbe:
		sys.probe(*ev, now)

	case wevReconsider:
		ev.sw.sm.reconsider(ev.sw, now)

	case wevRegClear:
		ev.sw.sm.regClear(ev.sw, ev.reg, now)

	case wevLSURetry:
		// MSHR-full retry: re-ready the warp unless a fill already did.
		if sm := ev.sw.sm; ev.sw.state == wsWaitLSU {
			sm.lsuStalled--
			sm.setReady(ev.sw)
		}

	case wevSendOffload:
		// Offload pipeline done: the packed request enters the TX link.
		job := ev.job
		reqBytes := offloadHdrBytes + job.cand.NumLiveIn()*isa.WarpSize*regLaneBytes
		sys.txLinks[job.dest].Send(packetOf(reqBytes, job.deliver), now)

	case wevFinishOffload:
		sys.finishOffload(ev.job, now)

	case wevRoute:
		sys.route(ev.line, ev.t, now)

	case wevVaultTry:
		// Crossbar delivery: enqueue into the vault, retrying while full.
		if st, v := sys.stacks[ev.fl.at.Stack], ev.fl.at.Vault; st.vaults[v].Enqueue(&ev.fl.req) {
			st.busy.set(v)
			st.due = minEvent(st.due, st.vaults[v].NextEvent())
		} else {
			sys.wheel.afterEvent(vaultRetryDelay, *ev)
		}

	case wevTxnDone:
		ev.t.complete(now)
	}
}
