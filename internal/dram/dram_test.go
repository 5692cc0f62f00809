package dram

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/mapping"
)

// bankOf is the bank Enqueue files addr under.
func bankOf(addr uint64) int { return mapping.Decode(addr, mapping.Interleave).Bank }

func run(v *Vault, until int64) {
	for now := int64(0); now < until; now++ {
		v.Tick(now)
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	tm := DefaultTiming()
	v := NewVault(tm)
	var firstDone, secondDone int64
	v.Enqueue(&Request{Addr: 0x1000, Bytes: 128, Done: func(now int64) { firstDone = now }})
	run(v, 200)
	v2 := NewVault(tm)
	v2.Enqueue(&Request{Addr: 0x1000, Bytes: 128, Done: func(int64) {}})
	run(v2, 200)
	// Same bank (16 lines apart) and same 4 KB row: hit.
	v2.Enqueue(&Request{Addr: 0x1800, Bytes: 128, Done: func(now int64) { secondDone = now }})
	for now := int64(200); now < 400; now++ {
		v2.Tick(now)
	}
	missLat := firstDone
	hitLat := secondDone - 200
	if hitLat >= missLat {
		t.Errorf("row hit latency %d should beat miss latency %d", hitLat, missLat)
	}
	if v2.RowHits != 1 || v2.Activations != 1 {
		t.Errorf("hits/acts = %d/%d, want 1/1", v2.RowHits, v2.Activations)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	tm := DefaultTiming()
	v := NewVault(tm)
	// Open row around 0x0 by serving a first request.
	done := make([]int64, 3)
	v.Enqueue(&Request{Addr: 0x0, Bytes: 128, Done: func(now int64) { done[0] = now }})
	run(v, 100)
	// Now queue: a row-miss (different row, same bank) then a row-hit;
	// the hit must complete first. Find a same-bank different-row address
	// under the folded bank mapping.
	bank0 := bankOf(0x0)
	missAddr := uint64(0)
	for row := uint64(1); row < 4096; row++ {
		a := row * mapping.RowBytes
		if bankOf(a) == bank0 {
			missAddr = a
			break
		}
	}
	if missAddr == 0 {
		t.Fatal("no same-bank row found")
	}
	v.Enqueue(&Request{Addr: missAddr, Bytes: 128, Write: true, Done: func(now int64) { done[1] = now }})
	hitAddr := uint64(0x80) // same row as the already-open row 0
	if bankOf(hitAddr) != bank0 {
		t.Fatal("hit address maps to wrong bank")
	}
	v.Enqueue(&Request{Addr: hitAddr, Bytes: 128, Done: func(now int64) { done[2] = now }})
	for now := int64(100); now < 600; now++ {
		v.Tick(now)
	}
	if done[1] == 0 || done[2] == 0 {
		t.Fatalf("requests not served: %v", done)
	}
	if done[2] >= done[1] {
		t.Errorf("row-hit finished at %d, after row-miss at %d", done[2], done[1])
	}
	if v.Writes != 1 || v.Reads != 2 {
		t.Errorf("reads/writes = %d/%d", v.Reads, v.Writes)
	}
}

func TestQueueBound(t *testing.T) {
	v := NewVault(DefaultTiming())
	n := 0
	for v.Enqueue(&Request{Addr: uint64(n) * 128, Bytes: 128}) {
		n++
		if n > 1000 {
			t.Fatal("queue never filled")
		}
	}
	if n != DefaultTiming().QueueDepth {
		t.Errorf("queue depth = %d, want %d", n, DefaultTiming().QueueDepth)
	}
	if !v.Full() {
		t.Error("vault should be full")
	}
}

func TestBandwidthBound(t *testing.T) {
	tm := DefaultTiming()
	v := NewVault(tm)
	served := 0
	var last int64
	r := rand.New(rand.NewSource(1))
	horizon := int64(20000)
	for now := int64(0); now < horizon; now++ {
		for !v.Full() {
			v.Enqueue(&Request{Addr: uint64(r.Intn(1<<26)) &^ 127, Bytes: 128,
				Done: func(at int64) { served++; last = at }})
		}
		v.Tick(now)
	}
	gbPerCycle := float64(served*128) / float64(last)
	// Must not exceed the TSV budget, and should get reasonably close
	// under full load with row locality absent (random addresses).
	if gbPerCycle > tm.BytesPerCycle*1.02 {
		t.Errorf("sustained %v B/cy exceeds TSV budget %v", gbPerCycle, tm.BytesPerCycle)
	}
	if gbPerCycle < tm.BytesPerCycle*0.5 {
		t.Errorf("sustained %v B/cy is unreasonably low (budget %v)", gbPerCycle, tm.BytesPerCycle)
	}
	if v.BytesMoved != uint64(v.Reads+v.Writes)*128 {
		t.Errorf("byte accounting mismatch")
	}
}

func TestCompletionOrderMonotonic(t *testing.T) {
	v := NewVault(DefaultTiming())
	var times []int64
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 24; i++ {
		v.Enqueue(&Request{Addr: uint64(r.Intn(1<<24)) &^ 127, Bytes: 128,
			Done: func(at int64) { times = append(times, at) }})
	}
	run(v, 5000)
	if len(times) != 24 {
		t.Fatalf("served %d, want 24", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("completions ran backwards: %v", times)
		}
	}
}

// TestTableSizes: a bank (its open row, busy cycle and the two ends of its
// request list) is 32 bytes, so a vault of 16 fits the 704-byte size class;
// bank sits in Request's padding, so the request the simulator embeds in
// each in-flight record stays 56 bytes.
func TestTableSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are for 64-bit hosts")
	}
	if got := unsafe.Sizeof(Request{}); got != 56 {
		t.Errorf("Request is %d bytes, want 56", got)
	}
	if got := unsafe.Sizeof(bank{}); got != 32 {
		t.Errorf("bank is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(Vault{}); got > 704 {
		t.Errorf("Vault is %d bytes, want at most 704", got)
	}
}
