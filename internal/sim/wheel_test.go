package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestWheelFiresAtExactCycle(t *testing.T) {
	w := newWheel(&System{})
	fired := map[int64]int64{}
	now := int64(0)
	schedule := func(delay int64) {
		at := now + delay
		w.after(delay, func(fireNow int64) { fired[at] = fireNow })
	}
	schedule(1)
	schedule(5)
	schedule(wheelHorizon - 1)
	for ; now < wheelHorizon+10; now++ {
		w.tick(now)
	}
	for at, got := range fired {
		if got != at {
			t.Errorf("event scheduled for %d fired at %d", at, got)
		}
	}
	if len(fired) != 3 {
		t.Errorf("fired %d events, want 3", len(fired))
	}
	if w.pending() != 0 {
		t.Errorf("pending = %d after drain", w.pending())
	}
}

func TestWheelZeroDelayClamped(t *testing.T) {
	w := newWheel(&System{})
	fired := int64(-1)
	w.tick(0)
	w.after(0, func(now int64) { fired = now })
	for now := int64(1); now < 4; now++ {
		w.tick(now)
	}
	if fired != 1 {
		t.Errorf("zero delay fired at %d, want 1 (clamped)", fired)
	}
}

// TestWheelOverflowFiresExactly: delays at and beyond the horizon no longer
// panic — they park in the overflow bucket and fire at the exact cycle once
// re-filed into range. Long modeled latencies (scaled PCIe, future workload
// sweeps) are legitimate configs, not crashes.
func TestWheelOverflowFiresExactly(t *testing.T) {
	w := newWheel(&System{})
	fired := map[int64]int64{}
	schedule := func(delay int64) {
		at := delay // scheduled at now=0
		w.after(delay, func(fireNow int64) { fired[at] = fireNow })
	}
	schedule(wheelHorizon)     // exactly at the horizon
	schedule(wheelHorizon + 1) // just beyond
	schedule(10 * wheelHorizon)
	if w.pending() != 3 {
		t.Fatalf("pending = %d, want 3", w.pending())
	}
	for now := int64(0); now <= 10*wheelHorizon+5; now++ {
		w.tick(now)
	}
	for _, at := range []int64{wheelHorizon, wheelHorizon + 1, 10 * wheelHorizon} {
		if got, ok := fired[at]; !ok {
			t.Errorf("overflow event for cycle %d never fired", at)
		} else if got != at {
			t.Errorf("overflow event scheduled for %d fired at %d", at, got)
		}
	}
	if w.pending() != 0 {
		t.Errorf("pending = %d after drain", w.pending())
	}
}

// TestWheelOverflowSurvivesSkippedCycles: the event-driven loop may jump
// straight to nextDue; overflow events must re-file and fire under that
// tick pattern too.
func TestWheelOverflowSurvivesSkippedCycles(t *testing.T) {
	w := newWheel(&System{})
	var firedAt int64 = -1
	w.after(3*wheelHorizon+7, func(now int64) { firedAt = now })
	for now := w.nextDue(); now >= 0; now = w.nextDue() {
		w.tick(now)
	}
	if firedAt != 3*wheelHorizon+7 {
		t.Errorf("fired at %d, want %d", firedAt, int64(3*wheelHorizon+7))
	}
}

func TestWheelNextDue(t *testing.T) {
	w := newWheel(&System{})
	if w.nextDue() != -1 {
		t.Errorf("empty wheel nextDue = %d, want -1", w.nextDue())
	}
	w.after(37, func(int64) {})
	if got := w.nextDue(); got != 37 {
		t.Errorf("nextDue = %d, want 37", got)
	}
	w.after(2*wheelHorizon, func(int64) {})
	if got := w.nextDue(); got != 37 {
		t.Errorf("nextDue with overflow = %d, want 37", got)
	}
	w.tick(37)
	if got := w.nextDue(); got != 2*wheelHorizon {
		t.Errorf("nextDue after near event = %d, want %d", got, int64(2*wheelHorizon))
	}
}

func TestWheelCascading(t *testing.T) {
	// Events scheduled from within events must land on later cycles.
	w := newWheel(&System{})
	var order []int64
	w.after(2, func(now int64) {
		order = append(order, now)
		w.after(3, func(now2 int64) { order = append(order, now2) })
	})
	for now := int64(0); now < 10; now++ {
		w.tick(now)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 5 {
		t.Errorf("cascade order = %v, want [2 5]", order)
	}
}

// TestWheelMatchesReferenceModel drives the wheel with random traffic and
// checks it against the definition of a timer: events fire at exactly their
// due cycle, ordered by (due cycle, filing sequence). Delays cover the
// clamped zero, the per-slot FIFO (many events per cycle), the far end of
// the horizon and the overflow bucket; handlers file further events while
// their slot is being drained (so the slab grows and reuses nodes mid-tick);
// and time advances by single cycles, by jumps that stop short of the next
// due cycle, and by jumps straight to it, the way the event loop does.
func TestWheelMatchesReferenceModel(t *testing.T) {
	type filed struct {
		due int64
		id  int // filing sequence number
	}
	type fired struct {
		id int
		at int64
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := newWheel(&System{})
		var model []filed // every event ever filed
		var got []fired
		pending := map[int]int64{} // id -> due, for the nextDue check
		now := int64(0)

		var file func(depth int)
		file = func(depth int) {
			var delay int64
			switch rng.Intn(6) {
			case 0:
				delay = 0 // clamped to 1
			case 1:
				delay = 1 + rng.Int63n(4) // crowds a few slots
			case 2:
				delay = 1 + rng.Int63n(200)
			case 3:
				delay = wheelHorizon - 1 - rng.Int63n(3)
			case 4:
				delay = wheelHorizon + rng.Int63n(3) // first cycles of the overflow
			default:
				delay = wheelHorizon + rng.Int63n(2*wheelHorizon)
			}
			id := len(model)
			due := now + max(delay, 1)
			model = append(model, filed{due: due, id: id})
			pending[id] = due
			w.after(delay, func(at int64) {
				got = append(got, fired{id: id, at: at})
				delete(pending, id)
				for depth < 3 && rng.Intn(3) == 0 {
					file(depth + 1)
					depth++
				}
			})
		}

		w.tick(now)
		for step := 0; ; step++ { // file for 1000 steps, then drain
			if step < 1000 {
				for n := rng.Intn(4); n > 0; n-- {
					file(0)
				}
			}
			next := w.nextDue()
			want := int64(-1)
			for _, due := range pending {
				if want < 0 || due < want {
					want = due
				}
			}
			if next != want {
				t.Fatalf("seed %d cycle %d: nextDue = %d, earliest pending is %d", seed, now, next, want)
			}
			if next < 0 {
				if step >= 1000 {
					break
				}
				next = now + 1 + rng.Int63n(50)
			}
			switch rng.Intn(3) {
			case 0:
				now++
			case 1:
				now += 1 + rng.Int63n(next-now) // skips cycles, never past next
			default:
				now = next
			}
			w.tick(now)
		}
		if w.pending() != 0 || len(pending) != 0 {
			t.Fatalf("seed %d: %d events still pending after the drain", seed, w.pending())
		}

		sort.SliceStable(model, func(i, j int) bool { return model[i].due < model[j].due })
		if len(got) != len(model) {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(got), len(model))
		}
		for i, m := range model {
			if got[i].id != m.id || got[i].at != m.due {
				t.Fatalf("seed %d: firing %d was event %d at cycle %d, the model says event %d at cycle %d",
					seed, i, got[i].id, got[i].at, m.id, m.due)
			}
		}
	}
}

// TestWheelSlabBoundedByPeakPending: the slab holds the peak number of
// events pending in the wheel at once, however many pass through it.
func TestWheelSlabBoundedByPeakPending(t *testing.T) {
	const peak = 64
	rng := rand.New(rand.NewSource(5))
	w := newWheel(&System{})
	nop := func(int64) {}
	w.tick(0)
	for filed := 0; filed < 1_000_000; {
		for w.pending() < peak {
			w.after(1+rng.Int63n(2*wheelHorizon), nop)
			filed++
		}
		w.tick(w.nextDue())
	}
	if len(w.nodes) > peak {
		t.Errorf("slab grew to %d nodes with at most %d events pending", len(w.nodes), peak)
	}
}

func TestBitsetBasics(t *testing.T) {
	b := newBitset(192)
	if b.any() || b.first() != -1 {
		t.Error("fresh bitset should be empty")
	}
	for _, i := range []int{0, 63, 64, 191} {
		b.set(i)
		if !b.get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.first() != 0 {
		t.Errorf("first = %d, want 0", b.first())
	}
	b.clear(0)
	if b.first() != 63 {
		t.Errorf("first = %d, want 63", b.first())
	}
	b.clear(63)
	b.clear(64)
	b.clear(191)
	if b.any() {
		t.Error("bitset should be empty again")
	}
}

func TestBitsetFirstIsMinimum(t *testing.T) {
	f := func(raw []uint16) bool {
		b := newBitset(192)
		min := -1
		for _, r := range raw {
			i := int(r) % 192
			b.set(i)
			if min < 0 || i < min {
				min = i
			}
		}
		if min < 0 {
			return b.first() == -1
		}
		return b.first() == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
