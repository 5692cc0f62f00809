package dram

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mapping"
)

// refVault is an oracle for Vault's scheduling: one arrival-ordered queue,
// scanned front to back each cycle for the oldest open-row hit to a free
// bank, else the oldest request to a free bank — FR-FCFS as written — with
// the same timing arithmetic as Vault.
type refVault struct {
	t         Timing
	banks     [mapping.Banks]refBank
	queue     []refReq // arrival order
	busFreeAt int64
	drainGap  int64
	compl     []refCompl // by cycle; equal cycles in issue order

	activations, rowHits, reads, writes, bytesMoved uint64
}

type refBank struct {
	row       uint64
	open      bool
	busyUntil int64
}

type refReq struct {
	id    int
	bank  int
	row   uint64
	bytes int
	write bool
}

type refCompl struct {
	at int64
	id int
}

func newRefVault(t Timing) *refVault {
	return &refVault{t: t, drainGap: int64(4 * float64(t.TCL))}
}

func (v *refVault) enqueue(id int, addr uint64, bytes int, write bool) bool {
	if len(v.queue) >= v.t.QueueDepth {
		return false
	}
	pl := mapping.Decode(addr, mapping.Interleave)
	v.queue = append(v.queue, refReq{id: id, bank: pl.Bank, row: pl.Row, bytes: bytes, write: write})
	return true
}

// tick fires the completions due by now, reporting each to done, then
// issues at most one request.
func (v *refVault) tick(now int64, done func(id int, at int64)) {
	for len(v.compl) > 0 && v.compl[0].at <= now {
		c := v.compl[0]
		v.compl = v.compl[1:]
		done(c.id, now)
	}
	if len(v.queue) == 0 || v.busFreeAt > now+v.drainGap {
		return
	}
	pick := -1
	for i, r := range v.queue {
		if b := v.banks[r.bank]; b.busyUntil <= now && b.open && b.row == r.row {
			pick = i
			break
		}
	}
	if pick < 0 {
		for i, r := range v.queue {
			if v.banks[r.bank].busyUntil <= now {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return
	}
	r := v.queue[pick]
	v.queue = slices.Delete(v.queue, pick, pick+1)
	b := &v.banks[r.bank]
	lat := v.t.TCL
	if b.open && b.row == r.row {
		v.rowHits++
	} else {
		lat += v.t.TRP + v.t.TRCD
		v.activations++
		b.row, b.open = r.row, true
	}
	end := max(now+lat, v.busFreeAt)
	if r.bytes > 0 {
		end += int64(math.Ceil(float64(r.bytes) / v.t.BytesPerCycle))
	}
	v.busFreeAt, b.busyUntil = end, end
	if r.write {
		v.writes++
	} else {
		v.reads++
	}
	v.bytesMoved += uint64(r.bytes)
	i := len(v.compl)
	for i > 0 && v.compl[i-1].at > end {
		i--
	}
	v.compl = slices.Insert(v.compl, i, refCompl{end, r.id})
}

func (v *refVault) snapshot() Snapshot {
	return Snapshot{
		Activations: v.activations,
		RowHits:     v.rowHits,
		Reads:       v.reads,
		Writes:      v.writes,
		BytesMoved:  v.bytesMoved,
		Queued:      len(v.queue),
		InFlight:    len(v.compl),
	}
}

// vaultOp is one step of a vault stream: an enqueue of addr, or (tick) a
// Tick gap cycles after the previous one.
type vaultOp struct {
	tick  bool
	gap   int64
	addr  uint64
	bytes int
	write bool
}

// checkVaultOracle drives ops through a Vault and a refVault of timing tm,
// then ticks both every cycle until they drain. Every Enqueue answer, the
// snapshot after every tick and every request's completion cycle must agree.
func checkVaultOracle(t *testing.T, tm Timing, ops []vaultOp) {
	t.Helper()
	v, ref := NewVault(tm), newRefVault(tm)
	var got, want []int64 // completion cycle by request id, -1 while pending
	now := int64(0)
	tick := func() {
		v.Tick(now)
		ref.tick(now, func(id int, at int64) { want[id] = at })
		if g, w := v.Snapshot(), ref.snapshot(); g != w {
			t.Fatalf("cycle %d: vault %+v, oracle %+v", now, g, w)
		}
	}
	for i, op := range ops {
		if op.tick {
			now += op.gap
			tick()
			continue
		}
		id := len(got)
		r := &Request{Addr: op.addr, Bytes: op.bytes, Write: op.write, Done: func(at int64) { got[id] = at }}
		g, w := v.Enqueue(r), ref.enqueue(id, op.addr, op.bytes, op.write)
		if g != w {
			t.Fatalf("op %d (cycle %d, addr %#x): Enqueue answers %v, oracle %v", i, now, op.addr, g, w)
		}
		if g {
			got, want = append(got, -1), append(want, -1)
		}
	}
	for drained := now + 1_000_000; v.Active() || len(ref.queue)+len(ref.compl) > 0; {
		now++
		tick()
		if now > drained {
			t.Fatal("the vaults did not drain")
		}
	}
	for id := range got {
		if got[id] != want[id] {
			t.Fatalf("request %d completed at cycle %d, oracle %d", id, got[id], want[id])
		}
	}
}

// TestVaultMatchesOracle: random enqueue and tick streams, over few enough
// rows that banks conflict and rows hit, under the default timing and under
// a shallow queue and a slow bus, complete every request on the oracle's
// cycle with the oracle's counters.
func TestVaultMatchesOracle(t *testing.T) {
	shallow := DefaultTiming()
	shallow.QueueDepth = 4
	slow := DefaultTiming()
	slow.BytesPerCycle = 1.5
	for name, tm := range map[string]Timing{"default": DefaultTiming(), "shallow": shallow, "slow": slow} {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			ops := make([]vaultOp, 3000)
			for i := range ops {
				if rng.Intn(3) == 0 {
					ops[i] = vaultOp{tick: true, gap: int64(1 + rng.Intn(4)*rng.Intn(8))}
					continue
				}
				op := vaultOp{addr: uint64(rng.Intn(48))<<12 | uint64(rng.Intn(32))<<7, bytes: 128}
				if rng.Intn(4) == 0 {
					op.bytes, op.write = 4*rng.Intn(33), true
				}
				ops[i] = op
			}
			t.Run(name, func(t *testing.T) { checkVaultOracle(t, tm, ops) })
		}
	}
}

// FuzzVaultMatchesOracle: the input's bytes are a stream of two-byte
// operations against a vault with an 8-request queue. A first byte ending in
// binary 11 ticks 1–16 cycles on; any other enqueues a request to one of 32
// rows (the second byte's low five bits) at one of 8 columns (its top
// three), 128 bytes or, when bit 2 is set, a write of 32–124.
func FuzzVaultMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 0, 32, 3, 0, 0, 1, 4, 16, 7, 0, 0, 64, 63, 0})
	f.Add([]byte{0, 5, 0, 21, 0, 37, 0, 5, 3, 0, 0, 5, 4, 21, 3, 0, 0, 53})
	tm := DefaultTiming()
	tm.QueueDepth = 8
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]vaultOp, 0, len(data)/2)
		for b := data; len(b) >= 2; b = b[2:] {
			op := vaultOp{addr: uint64(b[1]&31)<<12 | uint64(b[1]>>5)<<7, bytes: 128}
			switch {
			case b[0]&3 == 3:
				op = vaultOp{tick: true, gap: 1 + int64(b[0]>>2&15)}
			case b[0]&4 != 0:
				op.bytes, op.write = 32+4*int(b[0]>>3%24), true
			}
			ops = append(ops, op)
		}
		checkVaultOracle(t, tm, ops)
	})
}
