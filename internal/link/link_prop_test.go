package link

import (
	"math/rand"
	"testing"
)

// TestRandomTrafficConservation: under random arrivals, every packet is
// delivered exactly once, in order, and sustained throughput never exceeds
// the configured bandwidth.
func TestRandomTrafficConservation(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		bw := 4 + rng.Float64()*60
		lat := int64(rng.Intn(50))
		l := New("t", bw, lat)
		total := 400
		sent := 0
		var sentBytes uint64
		delivered := make([]int, 0, total)
		deliveredAt := make([]int64, 0, total)
		var now int64
		for ; sent < total || l.Active(); now++ {
			if sent < total && rng.Intn(3) == 0 {
				id := sent
				sz := 4 + rng.Intn(200)
				sentBytes += uint64(sz)
				l.Send(Packet{Bytes: sz, Deliver: func(at int64) {
					delivered = append(delivered, id)
					deliveredAt = append(deliveredAt, at)
				}}, now)
				sent++
			}
			l.AdvanceTo(now)
			if now > 1_000_000 {
				t.Fatal("link did not drain")
			}
		}
		if len(delivered) != total {
			t.Fatalf("trial %d: delivered %d of %d", trial, len(delivered), total)
		}
		for i, id := range delivered {
			if id != i {
				t.Fatalf("trial %d: out-of-order delivery %v", trial, delivered[:i+1])
			}
			if i > 0 && deliveredAt[i] < deliveredAt[i-1] {
				t.Fatalf("trial %d: delivery times ran backwards", trial)
			}
		}
		if l.BytesSent != sentBytes {
			t.Fatalf("trial %d: bytes sent %d, want %d", trial, l.BytesSent, sentBytes)
		}
		// Throughput bound: serialization alone needs bytes/bw cycles.
		minCycles := float64(sentBytes) / bw
		if float64(now) < minCycles-1 {
			t.Fatalf("trial %d: drained %d bytes in %d cycles, below the %.0f-cycle bandwidth bound",
				trial, sentBytes, now, minCycles)
		}
		if u := l.Utilization(now); u < 0 || u > 1.001 {
			t.Fatalf("trial %d: utilization %v out of range", trial, u)
		}
	}
}

// TestLatencyLowerBound: no packet can arrive before serialization plus
// propagation.
func TestLatencyLowerBound(t *testing.T) {
	l := New("t", 10, 25)
	var at int64 = -1
	l.Send(Packet{Bytes: 100, Deliver: func(now int64) { at = now }}, 0)
	for now := int64(0); at < 0 && now < 1000; now++ {
		l.AdvanceTo(now)
	}
	// 100 B at 10 B/cy = 10 cycles serialization, +25 propagation.
	if at < 34 {
		t.Fatalf("delivered at %d, before the 34-cycle lower bound", at)
	}
}

// TestLinkEventJumpMatchesPerCycle: advancing a link only at its NextEvent()
// cycles (plus externally scheduled send and utilization-probe cycles) must
// match ticking it every cycle exactly — same per-packet delivery times,
// same counters, and the same Channel Busy Monitor readings at every probe.
// The probes deliberately land at cycles the event run would otherwise skip,
// exercising the lazy bulk accounting path (account through now-1 on read).
// The last trial pushes 10^5 packets through one link, so the queue and
// in-flight rings wrap thousands of times; in every trial their capacity
// must stay within a small multiple of the peak occupancy.
func TestLinkEventJumpMatchesPerCycle(t *testing.T) {
	type send struct {
		at    int64
		bytes int
	}
	for trial := 0; trial < 9; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 40))
		bw := []float64{7.14, 28.57, 57.14, 1.999}[trial%4]
		lat := int64(5 + rng.Intn(40))
		packets := 250
		if trial == 8 {
			packets = 100_000
		}
		sched := make([]send, 0, packets)
		at := int64(0)
		for i := 0; i < packets; i++ {
			at += int64(rng.Intn(60))
			sched = append(sched, send{at: at, bytes: 4 + rng.Intn(300)})
		}
		var probes []int64
		for p := int64(50); p < at+200; p += int64(100 + rng.Intn(400)) {
			probes = append(probes, p)
		}

		run := func(jump bool) ([]int64, []float64, uint64, uint64, uint64) {
			l := New("t", bw, lat)
			deliveredAt := make([]int64, len(sched))
			var utils []float64
			peakQueue, peakInflight := 0, 0
			si, pi := 0, 0
			now := int64(0)
			for si < len(sched) || l.Active() {
				for pi < len(probes) && probes[pi] == now {
					utils = append(utils, l.Utilization(now))
					pi++
				}
				for si < len(sched) && sched[si].at == now {
					id := si
					l.Send(Packet{Bytes: sched[si].bytes,
						Deliver: func(c int64) { deliveredAt[id] = c }}, now)
					si++
				}
				// Occupancy peaks between the two halves of an advance: after
				// serialized packets moved to the propagation stage, before
				// due ones are delivered. Accounting is idempotent, so doing
				// the first half here changes nothing.
				peakQueue = max(peakQueue, l.queue.len())
				l.account(now)
				peakInflight = max(peakInflight, l.inflight.len())
				if !jump {
					l.AdvanceTo(now)
					now++
					continue
				}
				l.AdvanceTo(now)
				next := int64(1 << 62)
				if si < len(sched) && sched[si].at < next {
					next = sched[si].at
				}
				if pi < len(probes) && probes[pi] < next {
					next = probes[pi]
				}
				if h := l.NextEvent(); h >= 0 && h < next {
					next = h
				}
				if next <= now { // AdvanceTo(now) cleared everything due
					next = now + 1
				}
				if next == 1<<62 {
					break
				}
				now = next
				if now > 10_000_000 {
					t.Fatal("event run did not drain")
				}
			}
			if c := len(l.queue.buf); c > max(4, 2*peakQueue) {
				t.Errorf("trial %d: queue capacity %d with at most %d packets queued", trial, c, peakQueue)
			}
			if c := len(l.inflight.buf); c > max(4, 2*peakInflight) {
				t.Errorf("trial %d: in-flight capacity %d with at most %d packets in flight", trial, c, peakInflight)
			}
			return deliveredAt, utils, l.BytesSent, l.PacketsSent, l.BusyCycles
		}

		refAt, refU, refB, refP, refBusy := run(false)
		gotAt, gotU, gotB, gotP, gotBusy := run(true)
		for id := range refAt {
			if refAt[id] != gotAt[id] {
				t.Fatalf("trial %d (bw %g): packet %d delivered at %d per-cycle but %d event-jump",
					trial, bw, id, refAt[id], gotAt[id])
			}
		}
		if refB != gotB || refP != gotP || refBusy != gotBusy {
			t.Fatalf("trial %d (bw %g): counters diverged: bytes %d/%d packets %d/%d busy %d/%d",
				trial, bw, refB, gotB, refP, gotP, refBusy, gotBusy)
		}
		if len(refU) != len(gotU) {
			t.Fatalf("trial %d: probe counts differ: %d vs %d", trial, len(refU), len(gotU))
		}
		for i := range refU {
			if refU[i] != gotU[i] {
				t.Fatalf("trial %d (bw %g): probe %d at cycle %d read %v per-cycle but %v event-jump",
					trial, bw, i, probes[i], refU[i], gotU[i])
			}
		}
	}
}

// TestLinkSteadyStateDoesNotAllocate: once its rings have grown to the
// traffic's peak, a link sends and delivers without allocating.
func TestLinkSteadyStateDoesNotAllocate(t *testing.T) {
	l := New("t", 16, 20)
	delivered := 0
	deliver := func(int64) { delivered++ }
	now := int64(0)
	burst := func() {
		for i := 0; i < 50; i++ {
			l.Send(Packet{Bytes: 64 + i, Deliver: deliver}, now)
			l.AdvanceTo(now)
			now++
		}
		for l.Active() {
			l.AdvanceTo(now)
			now++
		}
	}
	burst() // grow the rings
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("a warmed-up link allocates %.2f times per 50-packet burst, want 0", avg)
	}
	if delivered != 102*50 {
		t.Errorf("delivered %d packets, sent %d", delivered, 102*50)
	}
}
