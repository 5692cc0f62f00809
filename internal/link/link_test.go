package link

import "testing"

func TestSerializationAndPropagation(t *testing.T) {
	l := New("tx", 8, 10) // 8 B/cycle, 10 cycles propagation
	var deliveredAt int64 = -1
	l.Send(Packet{Bytes: 64, Deliver: func(now int64) { deliveredAt = now }}, 0)
	for now := int64(0); now < 100 && deliveredAt < 0; now++ {
		l.AdvanceTo(now)
	}
	// 64 B at 8 B/cycle = 8 cycles of serialization (finishing on the
	// 8th tick, t=7), plus 10 cycles propagation.
	if deliveredAt != 17 {
		t.Errorf("delivered at %d, want 17", deliveredAt)
	}
	if l.BytesSent != 64 || l.PacketsSent != 1 {
		t.Errorf("stats: %d bytes / %d packets", l.BytesSent, l.PacketsSent)
	}
}

func TestFIFOOrderAndConservation(t *testing.T) {
	l := New("tx", 16, 5)
	var order []int
	total := 0
	for i := 0; i < 20; i++ {
		i := i
		bytes := 16 + 16*(i%4)
		total += bytes
		l.Send(Packet{Bytes: bytes, Deliver: func(int64) { order = append(order, i) }}, 0)
	}
	for now := int64(0); now < 1000; now++ {
		l.AdvanceTo(now)
		if !l.Active() && len(order) == 20 {
			break
		}
	}
	if len(order) != 20 {
		t.Fatalf("delivered %d packets, want 20", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("out of order: %v", order)
		}
	}
	if l.BytesSent != uint64(total) {
		t.Errorf("bytes sent = %d, want %d (conservation)", l.BytesSent, total)
	}
}

func TestBigPacketSerializesGradually(t *testing.T) {
	l := New("tx", 4, 0)
	done := false
	l.Send(Packet{Bytes: 1000, Deliver: func(int64) { done = true }}, 0)
	var now int64
	for ; now < 10000 && !done; now++ {
		l.AdvanceTo(now)
	}
	// 1000/4 = 250 cycles.
	if now < 249 || now > 252 {
		t.Errorf("big packet took %d cycles, want ~250", now)
	}
}

func TestUtilizationSaturates(t *testing.T) {
	l := New("tx", 8, 0)
	for now := int64(0); now < 2048; now++ {
		if l.QueuedPackets() < 4 {
			l.Send(Packet{Bytes: 128}, now)
		}
		l.AdvanceTo(now)
	}
	if u := l.Utilization(2047); u < 0.9 {
		t.Errorf("saturated utilization = %v, want ~1", u)
	}
	if !l.Busy(0.5, 2047) {
		t.Error("link should report busy")
	}
	// Drain and go idle: utilization must decay.
	for now := int64(2048); now < 2048+4096; now++ {
		l.AdvanceTo(now)
	}
	if u := l.Utilization(2048 + 4095); u > 0.1 {
		t.Errorf("idle utilization = %v, want ~0", u)
	}
}

// TestUtilizationDecaysWithoutTicks pins the lazy-advance contract the
// event-driven simulator loop relies on: an idle link that is never ticked
// must read the same utilization as one ticked with busy=false every cycle.
func TestUtilizationDecaysWithoutTicks(t *testing.T) {
	l := New("tx", 8, 0)
	for now := int64(0); now < 2048; now++ {
		if l.QueuedPackets() < 4 {
			l.Send(Packet{Bytes: 128}, now)
		}
		l.AdvanceTo(now)
	}
	for now := int64(2048); l.Active(); now++ {
		l.AdvanceTo(now) // drain the tail without refilling
	}
	// No ticks at all during the idle window: a read far in the future must
	// see a fully decayed window.
	if u := l.Utilization(2048 + 4096); u != 0 {
		t.Errorf("idle utilization without ticks = %v, want 0", u)
	}
	if l.Busy(0.0001, 2048+4096+1) {
		t.Error("idle link must not report busy after the window expired")
	}
}

func TestThroughputMatchesBandwidth(t *testing.T) {
	l := New("tx", 57.14, 20) // the default GPU->stack link
	delivered := 0
	for now := int64(0); now < 10000; now++ {
		if l.QueuedPackets() < 8 {
			l.Send(Packet{Bytes: 144, Deliver: func(int64) { delivered++ }}, now)
		}
		l.AdvanceTo(now)
	}
	gbps := float64(l.BytesSent) / 10000 // bytes per cycle
	if gbps < 56 || gbps > 58 {
		t.Errorf("sustained throughput = %.2f B/cy, want ~57.14", gbps)
	}
}
