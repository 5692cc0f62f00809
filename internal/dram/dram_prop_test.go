package dram

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mapping"
)

// TestEveryRequestCompletesExactlyOnce: under random load, each enqueued
// request's Done fires exactly once, and byte accounting matches.
func TestEveryRequestCompletesExactlyOnce(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		v := NewVault(DefaultTiming())
		fired := map[int]int{}
		total := 600
		issued := 0
		var bytes uint64
		for now := int64(0); issued < total || v.Active(); now++ {
			if issued < total && !v.Full() && rng.Intn(3) > 0 {
				id := issued
				sz := 128
				if rng.Intn(4) == 0 {
					sz = 32 + 4*rng.Intn(24)
				}
				bytes += uint64(sz)
				v.Enqueue(&Request{
					Addr:  uint64(rng.Intn(1<<26)) &^ 127,
					Bytes: sz,
					Write: rng.Intn(2) == 0,
					Done:  func(int64) { fired[id]++ },
				})
				issued++
			}
			v.Tick(now)
			if now > 10_000_000 {
				t.Fatal("vault did not drain")
			}
		}
		for id, n := range fired {
			if n != 1 {
				t.Fatalf("trial %d: request %d completed %d times", trial, id, n)
			}
		}
		if len(fired) != total {
			t.Fatalf("trial %d: %d of %d requests completed", trial, len(fired), total)
		}
		if v.BytesMoved != bytes {
			t.Fatalf("trial %d: moved %d bytes, want %d", trial, v.BytesMoved, bytes)
		}
		if v.Reads+v.Writes != uint64(total) {
			t.Fatalf("trial %d: reads+writes = %d", trial, v.Reads+v.Writes)
		}
	}
}

// TestRowHitsPlusActivationsEqualRequests: every serviced request either
// hits the open row or activates a new one.
func TestRowHitsPlusActivationsEqualRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v := NewVault(DefaultTiming())
	total := 500
	issued := 0
	for now := int64(0); issued < total || v.Active(); now++ {
		if issued < total && !v.Full() {
			// Mixed locality: half sequential (row friendly), half random.
			var addr uint64
			if rng.Intn(2) == 0 {
				addr = uint64(issued) * 128 % (1 << 18)
			} else {
				addr = uint64(rng.Intn(1<<26)) &^ 127
			}
			v.Enqueue(&Request{Addr: addr, Bytes: 128})
			issued++
		}
		v.Tick(now)
	}
	if v.RowHits+v.Activations != uint64(total) {
		t.Fatalf("rowHits %d + activations %d != %d requests", v.RowHits, v.Activations, total)
	}
	if v.RowHits == 0 {
		t.Error("sequential stream should produce some row hits")
	}
}

// TestBankFoldPreservesRowResidency: all lines of one row map to one bank,
// and constraining any two address bits (a consecutive-bit stack mapping)
// still leaves all banks reachable.
func TestBankFoldPreservesRowResidency(t *testing.T) {
	for row := uint64(0); row < 256; row++ {
		base := row * 4096
		b0 := bankOf(base)
		for off := uint64(0); off < 4096; off += 128 {
			if bankOf(base+off) != b0 {
				t.Fatalf("row %d spans banks", row)
			}
		}
	}
	for bit := 7; bit <= 16; bit++ {
		for fixed := uint64(0); fixed < 4; fixed++ {
			seen := map[int]bool{}
			for i := uint64(0); i < 1<<14; i++ {
				addr := i * 4096
				// Constrain the two mapping bits to `fixed`.
				addr = addr&^(3<<uint(bit)) | fixed<<uint(bit)
				seen[bankOf(addr)] = true
			}
			if len(seen) < mapping.Banks/2 {
				t.Fatalf("bit %d fixed=%d reaches only %d banks", bit, fixed, len(seen))
			}
		}
	}
}

// TestVaultEventJumpMatchesPerCycle: driving a vault only at the cycles its
// own NextEvent() horizon names (plus external arrival cycles) must be
// indistinguishable from ticking it every cycle — identical per-request
// completion times and identical counters. This is the admissibility
// property the event-driven loop rests on: between `now` and the horizon
// the vault is provably inert, so a reported horizon that is ever too late
// (skipping a cycle where the per-cycle vault issues or completes) shows up
// here as a completion-time or counter divergence. The last trial pushes
// 10^5 requests through one vault; in every trial the completion list's
// capacity must stay within a small multiple of its peak occupancy, after
// every tick the bank queues must be well formed (checkQueues), and no
// request may still link to another when its Done runs.
func TestVaultEventJumpMatchesPerCycle(t *testing.T) {
	type arrival struct {
		at    int64
		addr  uint64
		bytes int
		write bool
	}
	for trial := 0; trial < 9; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 900))
		requests := 300
		if trial == 8 {
			requests = 100_000
		}
		sched := make([]arrival, 0, requests)
		at := int64(0)
		for i := 0; i < requests; i++ {
			at += int64(rng.Intn(40)) // bursty: many same-cycle arrivals
			a := arrival{at: at, addr: uint64(rng.Intn(1<<22)) &^ 127, bytes: 128}
			if rng.Intn(3) == 0 {
				a.addr = uint64(i) * 128 % (1 << 16) // row-friendly
			}
			if rng.Intn(4) == 0 {
				a.bytes = 32 + 4*rng.Intn(24)
				a.write = true
			}
			sched = append(sched, a)
		}

		run := func(jump bool) ([]int64, Snapshot, uint64, uint64) {
			v := NewVault(DefaultTiming())
			doneAt := make([]int64, len(sched))
			for i := range doneAt {
				doneAt[i] = -1
			}
			peakCompl, now := 0, int64(0)
			observe := func() {
				peakCompl = max(peakCompl, len(v.compl))
				if err := checkQueues(v); err != nil {
					t.Fatalf("trial %d cycle %d: %v", trial, now, err)
				}
			}
			i := 0
			for i < len(sched) || v.Active() {
				blocked := false
				for i < len(sched) && sched[i].at <= now {
					id := i
					r := &Request{Addr: sched[i].addr, Bytes: sched[i].bytes, Write: sched[i].write}
					r.Done = func(c int64) {
						doneAt[id] = c
						if r.next != nil {
							t.Fatalf("trial %d: request %d completes still linked to another", trial, id)
						}
					}
					ok := v.Enqueue(r)
					if !ok {
						blocked = true // queue full: retry next cycle, like wevVaultTry
						break
					}
					i++
				}
				observe()
				if !jump {
					v.Tick(now)
					observe()
					now++
					continue
				}
				if h := v.NextEvent(); h >= 0 && h <= now {
					v.Tick(now)
					observe()
				}
				// Next cycle anything can happen: the vault's own horizon,
				// the next scheduled arrival, or an immediate retry while the
				// queue is full.
				next := int64(1 << 62)
				if blocked {
					next = now + 1
				}
				if i < len(sched) && sched[i].at < next {
					next = sched[i].at
				}
				if h := v.NextEvent(); h >= 0 {
					if h <= now {
						h = now + 1 // ready: vault issues at most one request per cycle
					}
					if h < next {
						next = h
					}
				}
				if next <= now {
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
			if c := cap(v.compl); c > 4*peakCompl {
				t.Errorf("trial %d: completion list capacity %d with at most %d bursts in flight", trial, c, peakCompl)
			}
			return doneAt, v.Snapshot(), v.RowHits, v.Activations
		}

		ref, refSnap, refHits, refActs := run(false)
		got, gotSnap, gotHits, gotActs := run(true)
		for id := range ref {
			if ref[id] != got[id] {
				t.Fatalf("trial %d: request %d completed at %d per-cycle but %d event-jump",
					trial, id, ref[id], got[id])
			}
		}
		if refSnap != gotSnap || refHits != gotHits || refActs != gotActs {
			t.Fatalf("trial %d: counters diverged: per-cycle %+v (hits %d acts %d), event %+v (hits %d acts %d)",
				trial, refSnap, refHits, refActs, gotSnap, gotHits, gotActs)
		}
	}
}

// TestVaultSteadyStateDoesNotAllocate: once its queues have grown to the
// traffic's peak, a vault enqueues, issues and completes without allocating.
func TestVaultSteadyStateDoesNotAllocate(t *testing.T) {
	v := NewVault(DefaultTiming())
	done := 0
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Addr: uint64(i*7919) << 7, Bytes: 128, Write: i%4 == 0, Done: func(int64) { done++ }}
	}
	now := int64(0)
	burst := func() {
		for i := 0; i < len(reqs); {
			if v.Enqueue(&reqs[i]) {
				i++
			}
			v.Tick(now)
			now++
		}
		for v.Active() {
			v.Tick(now)
			now++
		}
	}
	burst() // grow the queues
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("a warmed-up vault allocates %.2f times per %d-request burst, want 0", avg, len(reqs))
	}
	if done != 102*len(reqs) {
		t.Errorf("%d requests completed, %d enqueued", done, 102*len(reqs))
	}
}

// checkQueues checks the invariants of v's bank queues: occ bit b is set
// exactly when bank b's queue is non-empty, each tail is its queue's last
// node, and the queues hold v.queued requests between them.
func checkQueues(v *Vault) error {
	n := 0
	for i := range v.banks {
		b := &v.banks[i]
		if got, want := v.occ&(1<<i) != 0, b.head != nil; got != want {
			return fmt.Errorf("bank %d: occ bit %v, queue non-empty %v", i, got, want)
		}
		var last *Request
		for r := b.head; r != nil; r = r.next {
			if int(r.bank) != i {
				return fmt.Errorf("bank %d queues a request for bank %d", i, r.bank)
			}
			last = r
			n++
		}
		if b.tail != last {
			return fmt.Errorf("bank %d: tail is not the queue's last node", i)
		}
	}
	if n != v.queued {
		return fmt.Errorf("%d requests in the bank queues, %d counted", n, v.queued)
	}
	return nil
}
