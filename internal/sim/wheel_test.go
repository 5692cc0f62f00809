package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// testHorizon is the default Config's wheel horizon, which the tests below
// run at.
var testHorizon = int64(wheelHorizonFor(DefaultConfig(), 0))

// probeWheel makes a wheel of horizon slots and the function its tests file
// callbacks with: each is a wevProbe event whose line field numbers the
// callback, and the System's probe hook runs it when the event fires.
func probeWheel(horizon int) (w *wheel, after func(delay int64, fn func(now int64))) {
	sys := &System{}
	var fns []func(int64)
	var freeIDs []uint64
	sys.probe = func(ev wheelEvent, now int64) {
		fn := fns[ev.line]
		fns[ev.line] = nil
		freeIDs = append(freeIDs, ev.line)
		fn(now)
	}
	w = newWheel(sys, horizon)
	after = func(delay int64, fn func(now int64)) {
		id := uint64(len(fns))
		if n := len(freeIDs); n > 0 {
			id, freeIDs = freeIDs[n-1], freeIDs[:n-1]
			fns[id] = fn
		} else {
			fns = append(fns, fn)
		}
		w.afterEvent(delay, wheelEvent{kind: wevProbe, line: id})
	}
	return w, after
}

func newTestWheel() (*wheel, func(delay int64, fn func(now int64))) {
	return probeWheel(int(testHorizon))
}

// TestWheelHorizonFor: the horizon is the smallest power of two strictly
// above the largest fixed delay — 128 for the default L2 latency of 90. Warp
// wake-ups after a pipeline latency and L1-hit returns ride the wheel too,
// so the L1 and pipeline latencies count.
func TestWheelHorizonFor(t *testing.T) {
	for _, tc := range []struct {
		edit     func(*Config)
		spawnLat int64
		want     int
	}{
		{func(*Config) {}, 0, 128},
		{func(*Config) {}, 2, 128},                                        // mpu's spawn latency
		{func(*Config) {}, 300, 512},                                      // a spawn latency above the L2's
		{func(c *Config) { c.L2Lat = 128 }, 0, 256},                       // a delay of exactly 128 needs slot 128
		{func(c *Config) { c.OffloadPipeLat = 1000 }, 0, 1024},            // a deep offload pipeline
		{func(c *Config) { c.DivLat = 200 }, 0, 256},                      // a divide slower than the L2
		{func(c *Config) { c.L1Lat = 150 }, 0, 256},                       // an L1 hit slower than the L2
		{func(c *Config) { *c = allLat(*c, 1) }, 0, 16},                   // the fixed retries
		{func(c *Config) { *c = allLat(*c, 1); c.SharedLat = 40 }, 0, 64}, // shared memory
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if got := wheelHorizonFor(cfg, tc.spawnLat); got != tc.want {
			t.Errorf("L1 %d, L2 %d, xbar %d, ALU/FP/div/shared %d/%d/%d/%d, pipeline %d, spawn %d: horizon %d, want %d",
				cfg.L1Lat, cfg.L2Lat, cfg.XbarLat, cfg.ALULat, cfg.FPLat, cfg.DivLat, cfg.SharedLat,
				cfg.OffloadPipeLat, tc.spawnLat, got, tc.want)
		}
	}
}

// allLat sets every fixed latency wheelHorizonFor reads to d.
func allLat(c Config, d int64) Config {
	c.L1Lat, c.L2Lat, c.XbarLat, c.OffloadPipeLat = d, d, d, d
	c.ALULat, c.FPLat, c.DivLat, c.SharedLat = d, d, d, d
	return c
}

func TestWheelFiresAtExactCycle(t *testing.T) {
	w, after := newTestWheel()
	fired := map[int64]int64{}
	now := int64(0)
	schedule := func(delay int64) {
		at := now + delay
		after(delay, func(fireNow int64) { fired[at] = fireNow })
	}
	schedule(1)
	schedule(5)
	schedule(testHorizon - 1)
	for ; now < testHorizon+10; now++ {
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
	w, after := newTestWheel()
	fired := int64(-1)
	w.tick(0)
	after(0, func(now int64) { fired = now })
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
	w, after := newTestWheel()
	fired := map[int64]int64{}
	schedule := func(delay int64) {
		at := delay // scheduled at now=0
		after(delay, func(fireNow int64) { fired[at] = fireNow })
	}
	schedule(testHorizon)     // exactly at the horizon
	schedule(testHorizon + 1) // just beyond
	schedule(10 * testHorizon)
	if w.pending() != 3 {
		t.Fatalf("pending = %d, want 3", w.pending())
	}
	for now := int64(0); now <= 10*testHorizon+5; now++ {
		w.tick(now)
	}
	for _, at := range []int64{testHorizon, testHorizon + 1, 10 * testHorizon} {
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

func TestWheelCascading(t *testing.T) {
	// Events scheduled from within events must land on later cycles.
	w, after := newTestWheel()
	var order []int64
	after(2, func(now int64) {
		order = append(order, now)
		after(3, func(now2 int64) { order = append(order, now2) })
	})
	for now := int64(0); now < 10; now++ {
		w.tick(now)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 5 {
		t.Errorf("cascade order = %v, want [2 5]", order)
	}
}

// wheelFiring is one event a wheel ran: its filing sequence number and the
// cycle it fired at.
type wheelFiring struct {
	id int
	at int64
}

// TestWheelMatchesReferenceModel drives the wheel with random traffic and
// checks it against the definition of a timer: events fire at exactly their
// due cycle, ordered by (due cycle, filing sequence). Delays cover the
// clamped zero, the per-slot FIFO (many events per cycle), both ends of a
// 64-slot and of an 8192-slot horizon and far beyond; handlers file further
// events while their slot is being drained (so the slab grows and reuses
// nodes mid-tick); and time advances one cycle per tick, the way the run
// loop drives it. Each seed's schedule runs on a 64-slot wheel, where most
// events take the overflow path, and on an 8192-slot one, where few do: both
// must fire the same events at the same cycles in the same order.
func TestWheelMatchesReferenceModel(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		small := wheelSchedule(t, seed, 64)
		large := wheelSchedule(t, seed, 8192)
		if len(small) != len(large) {
			t.Fatalf("seed %d: the 64-slot wheel fired %d events, the 8192-slot one %d", seed, len(small), len(large))
		}
		for i := range small {
			if small[i] != large[i] {
				t.Fatalf("seed %d: firing %d was %+v on the 64-slot wheel, %+v on the 8192-slot one", seed, i, small[i], large[i])
			}
		}
	}
}

// wheelSchedule runs seed's random schedule on a wheel of horizon slots,
// checks the firing order against the reference model, and returns the
// firings.
func wheelSchedule(t *testing.T, seed int64, horizon int) []wheelFiring {
	t.Helper()
	type filed struct {
		due int64
		id  int // filing sequence number
	}
	rng := rand.New(rand.NewSource(seed))
	w, after := probeWheel(horizon)
	var model []filed // every event ever filed
	var got []wheelFiring
	now := int64(0)

	var file func(depth int)
	file = func(depth int) {
		var delay int64
		switch rng.Intn(8) {
		case 0:
			delay = 0 // clamped to 1
		case 1:
			delay = 1 + rng.Int63n(4) // crowds a few slots
		case 2:
			delay = 1 + rng.Int63n(200)
		case 3:
			delay = 62 + rng.Int63n(5) // around the 64-slot horizon
		case 4:
			delay = 8189 + rng.Int63n(3) // the last slots of the 8192-slot one
		case 5:
			delay = 8192 + rng.Int63n(3) // its first cycles of overflow
		default:
			delay = 8192 + rng.Int63n(2*8192)
		}
		id := len(model)
		due := now + max(delay, 1)
		model = append(model, filed{due: due, id: id})
		after(delay, func(at int64) {
			got = append(got, wheelFiring{id: id, at: at})
			for depth < 3 && rng.Intn(3) == 0 {
				file(depth + 1)
				depth++
			}
		})
	}

	w.tick(now)
	for step := 0; step < 1000 || w.pending() > 0; step++ { // file for 1000 cycles, then drain
		if step < 1000 {
			for n := rng.Intn(4); n > 0; n-- {
				file(0)
			}
		}
		now++
		w.tick(now)
	}

	sort.SliceStable(model, func(i, j int) bool { return model[i].due < model[j].due })
	if len(got) != len(model) {
		t.Fatalf("seed %d horizon %d: fired %d of %d events", seed, horizon, len(got), len(model))
	}
	for i, m := range model {
		if got[i].id != m.id || got[i].at != m.due {
			t.Fatalf("seed %d horizon %d: firing %d was event %d at cycle %d, the model says event %d at cycle %d",
				seed, horizon, i, got[i].id, got[i].at, m.id, m.due)
		}
	}
	return got
}

// TestWheelSlabBoundedByPeakPending: the slab holds the peak number of
// events pending in the wheel at once, however many pass through it.
func TestWheelSlabBoundedByPeakPending(t *testing.T) {
	const peak = 64
	rng := rand.New(rand.NewSource(5))
	w, after := newTestWheel()
	nop := func(int64) {}
	now := int64(0)
	w.tick(now)
	for filed := 0; filed < 1_000_000; {
		for w.pending() < peak {
			after(1+rng.Int63n(2*testHorizon), nop)
			filed++
		}
		now++
		w.tick(now)
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
