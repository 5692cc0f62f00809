package main

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/link"
	"repro/internal/obs"
	"repro/internal/sim"
)

// drivePacketBytes is the mean size of the link drive's packets, which
// alternate a 32 B request header with a 160 B line-plus-header response;
// link.est_share turns Stats' off-chip bytes into packets with it.
const drivePacketBytes = 96

// drivePrices are the host costs of one operation of each memory-system
// component, measured standalone on seeded inputs.
type drivePrices struct {
	cacheNS, dramNS, linkNS float64
}

func (r *run) driveComponents(sc scope) drivePrices {
	seed := r.in.rng.Int63()
	var p drivePrices
	p.cacheNS = driveCache(sc, seed)
	p.dramNS = driveVault(sc, seed)
	p.linkNS = driveLink(sc, seed)
	r.set("cache.drive_ns_per_access", p.cacheNS)
	r.set("dram.drive_ns_per_req", p.dramNS)
	r.set("link.drive_ns_per_packet", p.linkNS)
	return p
}

// driveCache prices cache.Cache.Access on an L2-shaped cache (Table 1: 1 MB,
// 16-way, 128 B lines): three accesses in four fall in a 512 KB hot set, the
// rest anywhere in 64 MB.
func driveCache(sc scope, seed int64) float64 {
	const n = 1 << 20
	cfg := sim.DefaultConfig()
	c := cache.New(cfg.L2Bytes, cfg.L2Ways, cfg.LineBytes)
	rng := rand.New(rand.NewSource(seed))
	addrs := make([]uint64, n)
	for i := range addrs {
		if rng.Intn(4) != 0 {
			addrs[i] = uint64(rng.Intn(512 << 10))
		} else {
			addrs[i] = uint64(rng.Intn(64 << 20))
		}
	}
	d := sc.timed("cache.drive", func() {
		for _, a := range addrs {
			c.Access(a)
		}
	})
	return float64(d.Nanoseconds()) / n
}

// driveVault prices one DRAM request through Vault.Enqueue, NextEvent and
// Tick, visiting only the cycles the vault's own horizon names — the way the
// event loop drives it. Half the addresses stream through rows, half are
// random.
func driveVault(sc scope, seed int64) float64 {
	const n = 40000
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]dram.Request, n)
	for i := range reqs {
		addr := uint64(i) * 128 % (1 << 20)
		if rng.Intn(2) == 0 {
			addr = uint64(rng.Intn(1<<26)) &^ 127
		}
		reqs[i] = dram.Request{Addr: addr, Bytes: 128, Write: rng.Intn(4) == 0}
	}
	v := dram.NewVault(dram.DefaultTiming())
	d := sc.timed("dram.drive", func() {
		next, now := 0, int64(0)
		for next < n || v.Active() {
			for next < n && v.Enqueue(&reqs[next]) {
				next++
			}
			if h := v.NextEvent(); h > now {
				now = h
			}
			v.Tick(now)
			now++
		}
	})
	return float64(d.Nanoseconds()) / n
}

// driveLink prices one packet through Link.Send, NextEvent and AdvanceTo on
// a GPU↔stack link, advancing only to delivery horizons and send cycles.
func driveLink(sc scope, seed int64) float64 {
	const n = 200000
	rng := rand.New(rand.NewSource(seed))
	gaps := make([]int64, n)
	for i := range gaps {
		gaps[i] = int64(rng.Intn(8))
	}
	cfg := sim.DefaultConfig()
	l := link.New("drive", cfg.GPUStackBW, cfg.LinkLat)
	delivered := 0
	deliver := func(int64) { delivered++ }
	d := sc.timed("link.drive", func() {
		now := int64(0)
		for i := 0; i < n; i++ {
			now += gaps[i]
			for h := l.NextEvent(); h >= 0 && h <= now; h = l.NextEvent() {
				l.AdvanceTo(h)
			}
			bytes := 32
			if i%2 == 1 {
				bytes = 160
			}
			l.Send(link.Packet{Bytes: bytes, Deliver: deliver}, now)
		}
		for h := l.NextEvent(); h >= 0; h = l.NextEvent() {
			l.AdvanceTo(h)
		}
	})
	if delivered != n {
		return 0
	}
	return float64(d.Nanoseconds()) / n
}

// sessionLayer measures core.Session and the observer hook around the
// simulator on the set's ctrl-tmap cells: a cold Session.Run against the
// bare System.Run the sim surface timed, and Session.RunObserved against
// that Session.Run. Each application is run once beforehand so that the
// session's instance and reference are built outside the timings.
func (r *run) sessionLayer(sc scope, set *simSet) {
	sc = sc.open("layer.session")
	defer sc.close()
	start := time.Now()
	s := core.NewSession(core.Options{Scale: set.scale})
	var runS, obsS, bareS float64
	for _, c := range set.cells {
		if c.cfg != core.CfgCtrlTmap {
			continue
		}
		r.pace()
		var err error
		sc.timed("core.session_warm", func() { _, err = s.Run(c.app, core.CfgBaseline) })
		r.op(err == nil, "session warm %s: %v", c.app, err)
		run := sc.timed("core.session_run", func() { _, err = s.Run(c.app, c.cfg) })
		r.op(err == nil, "session run %s: %v", c.key(), err)
		observed := sc.timed("core.session_run_observed", func() { _, err = s.RunObserved(c.app, c.cfg, obs.New()) })
		r.op(err == nil, "session observed run %s: %v", c.key(), err)
		runS += seconds(run)
		obsS += seconds(observed)
		bareS += quiet(set.runS[c.key()])
	}
	r.paceSince(start, workDamping)
	r.set("core.session_overhead_ratio", ratio(runS, bareS))
	r.set("obs.observed_ratio", ratio(obsS, runS))
}

// coreLayer repeats the sweep surface in process, so that the session's
// share of a tomx invocation is visible without the process around it: warm
// the experiment's matrix and build its tables on an empty cache directory,
// then again with a new session over the populated one. It also prices the
// cache, digest and scheduler primitives.
func (r *run) coreLayer(sc scope) {
	sc = sc.open("layer.core")
	defer sc.close()
	start := time.Now()
	r.pace()
	var pairs []core.Pair
	for _, c := range sweepConfigs {
		for _, a := range core.Abbrs() {
			pairs = append(pairs, core.Pair{Abbr: a, Config: c})
		}
	}
	ids := []string{sweepExp}
	dir := r.tempDir("core")
	pass := func(matrix, tables string) (time.Duration, time.Duration, *core.Session) {
		s := core.NewSession(core.Options{Scale: r.in.SweepScale, CacheDir: dir})
		var err error
		m := sc.timed(matrix, func() { err = s.Warm(pairs) })
		r.op(err == nil, "%s: %v", matrix, err)
		t := sc.timed(tables, func() {
			for _, id := range ids {
				if _, e := s.Experiment(id); e != nil {
					err = e
				}
			}
		})
		r.op(err == nil, "%s: %v", tables, err)
		return m, t, s
	}
	m, t, cold := pass("core.warm_matrix", "core.tables")
	r.paceSince(start, workDamping)
	r.set("core.warm_matrix_s", seconds(m))
	r.set("core.tables_s", seconds(t))
	m, t, warm := pass("core.replay_matrix", "core.replay_tables")
	r.set("core.replay_matrix_s", seconds(m))
	r.set("core.replay_tables_s", seconds(t))
	r.op(cold.CacheStats().DiskHits == 0 && warm.CacheStats().Simulated == 0,
		"core replay: cold pass hit disk %d times, warm pass simulated %d runs",
		cold.CacheStats().DiskHits, warm.CacheStats().Simulated)

	// Cache primitives on one real result, written and read back under
	// scales that no run uses so the digests are fresh.
	res, err := cold.Run(pairs[0].Abbr, pairs[0].Config)
	if err != nil {
		r.op(false, "core layer: %v", err)
		return
	}
	dc := core.NewDiskCache(r.tempDir("diskcache"), "")
	var putUS, getUS, digestUS []float64
	for i := 0; i < 200; i++ {
		spec, _ := core.NewRunSpec(pairs[0].Abbr, 2+float64(i), pairs[0].Config)
		var digest string
		digestUS = append(digestUS, micros(sc.timed("core.spec_digest", func() { digest = spec.Digest() })))
		putUS = append(putUS, micros(sc.timed("core.diskcache_put", func() { err = dc.Put(spec, res) })))
		var ok bool
		getUS = append(getUS, micros(sc.timed("core.diskcache_get", func() { _, ok, _ = dc.Get(digest) })))
		r.op(err == nil && ok, "disk cache round trip %d: put %v, found %v", i, err, ok)
	}
	r.setSamples("core.spec_digest_us", median(digestUS), digestUS)
	r.setSamples("core.diskcache_put_us", median(putUS), putUS)
	r.setSamples("core.diskcache_get_us", median(getUS), getUS)

	// Scheduler dispatch: ForEach over items that do nothing.
	const items = 100000
	sched := core.NewScheduler(0)
	d := sc.timed("core.sched_dispatch", func() {
		sched.ForEach(context.Background(), items, func(int) error { return nil })
	})
	r.set("core.sched_dispatch_us", micros(d)/items)
}
