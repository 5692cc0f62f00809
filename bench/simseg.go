package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// simSet is the library surface's working set: pristine instances and
// functional references for a workload's applications, and what the cells
// measured so far.
type simSet struct {
	scale float64
	cells []cell
	cfg   map[core.ConfigName]sim.Config
	inst  map[string]*workloads.Instance
	ref   map[string]*mem.Flat

	// First-round record per cell: every later round must reproduce it.
	digest map[string][sha256.Size]byte
	stats  map[string]sim.Stats
	ticked map[string]int64

	runS    map[string][]float64 // System.Run wall per cell, one per round
	cloneUS []float64
	newUS   []float64
	equalUS []float64
}

// simSetup is the cost of preparing a simSet, by layer.
type simSetup struct {
	build, functional, profile time.Duration
}

func (s simSetup) total() time.Duration { return s.build + s.functional + s.profile }

// buildSimSet does what core.Session does before its first run of each
// application: build the instance, run the functional reference on a clone
// and self-check it, and run the instrumented profile.
func buildSimSet(sc scope, apps []string, scale float64) (*simSet, simSetup, error) {
	set := &simSet{
		scale: scale, cells: cross(apps, simConfigs),
		cfg:    map[core.ConfigName]sim.Config{},
		inst:   map[string]*workloads.Instance{},
		ref:    map[string]*mem.Flat{},
		digest: map[string][sha256.Size]byte{},
		stats:  map[string]sim.Stats{},
		ticked: map[string]int64{},
		runS:   map[string][]float64{},
	}
	var cost simSetup
	for _, name := range simConfigs {
		spec, err := core.NewRunSpec("", scale, name)
		if err != nil {
			return nil, cost, err
		}
		set.cfg[name] = spec.Cfg
	}
	for _, app := range apps {
		w, err := workloads.ByAbbr(app)
		if err != nil {
			return nil, cost, err
		}
		var in *workloads.Instance
		cost.build += sc.timed("workloads.build", func() { in, err = w.Build(scale) })
		if err != nil {
			return nil, cost, fmt.Errorf("%s: build: %w", app, err)
		}
		ref := in.Clone()
		cost.functional += sc.timed("exec.functional", func() {
			err = exec.RunFunctionalAll(ref.Mem, ref.Launches)
		})
		if err == nil && in.Check != nil {
			err = in.Check(ref.Mem)
		}
		if err != nil {
			return nil, cost, fmt.Errorf("%s: functional reference: %w", app, err)
		}
		prof := in.Clone()
		cost.profile += sc.timed("sim.profile", func() {
			_, err = sim.RunProfile(prof.Mem, prof.Alloc, prof.Launches)
		})
		if err != nil {
			return nil, cost, fmt.Errorf("%s: profile: %w", app, err)
		}
		set.inst[app], set.ref[app] = in, ref.Mem
	}
	return set, cost, nil
}

// kernels lists the distinct kernels the set launches.
func (s *simSet) kernels() []*isa.Kernel {
	seen := map[*isa.Kernel]bool{}
	var out []*isa.Kernel
	for _, c := range s.cells {
		for _, l := range s.inst[c.app].Launches {
			if !seen[l.Kernel] {
				seen[l.Kernel] = true
				out = append(out, l.Kernel)
			}
		}
	}
	return out
}

// roundOpt selects what one pass over the cells records.
type roundOpt struct {
	timed    bool // keep Run wall and layer samples
	perCycle bool // run the per-cycle reference loop instead of the event loop
	// heap, when set, accumulates the heap counters' deltas around each
	// cell, so that the benchmark's own bookkeeping between cells stays
	// outside them. Reading them stops the world, which is why it is done
	// between cells and in the first round only.
	heap *heapDelta
}

type heapDelta struct{ bytes, mallocs uint64 }

// round runs every cell once in the given order: Clone, sim.New, Run,
// verify. It returns the wall spent inside System.Run and in the whole pass.
func (s *simSet) round(r *run, sc scope, order []cell, id int, opt roundOpt) (inRun, total time.Duration) {
	start := time.Now()
	var before, after runtime.MemStats
	for i, c := range order {
		if i%6 == 0 {
			r.pace()
		}
		if opt.heap != nil {
			runtime.ReadMemStats(&before)
		}
		csc := sc.withRun(id*1000 + i).open("cell " + c.key())
		var run *workloads.Instance
		clone := csc.timed("workloads.clone", func() { run = s.inst[c.app].Clone() })
		var sys *sim.System
		build := csc.timed("sim.new", func() { sys = sim.New(s.cfg[c.cfg], run.Mem, run.Alloc) })
		sys.SetPerCycleLoop(opt.perCycle)
		var err error
		wall := csc.timed("sim.run", func() { err = sys.Run(run.Launches) })
		inRun += wall
		if err == nil {
			err = s.verify(csc, c, run, sys, opt)
		}
		r.op(err == nil, "%s round %d: %v", c.key(), id, err)
		if opt.timed {
			s.runS[c.key()] = append(s.runS[c.key()], seconds(wall))
			s.cloneUS = append(s.cloneUS, micros(clone))
			s.newUS = append(s.newUS, micros(build))
		}
		csc.close()
		if opt.heap != nil {
			runtime.ReadMemStats(&after)
			opt.heap.bytes += after.TotalAlloc - before.TotalAlloc
			opt.heap.mallocs += after.Mallocs - before.Mallocs
		}
	}
	return inRun, time.Since(start)
}

// verify applies the checks core.Session applies to a fresh run, plus
// drain correctness and exact repetition of the cell's first statistics.
func (s *simSet) verify(sc scope, c cell, run *workloads.Instance, sys *sim.System, opt roundOpt) error {
	var same bool
	var addr uint64
	eq := sc.timed("mem.equal", func() { same, addr = mem.Equal(s.ref[c.app], run.Mem) })
	if opt.timed {
		s.equalUS = append(s.equalUS, micros(eq))
	}
	if !same {
		return fmt.Errorf("memory image differs from the functional reference at %#x", addr)
	}
	if check := s.inst[c.app].Check; check != nil {
		if err := check(run.Mem); err != nil {
			return fmt.Errorf("self-check: %w", err)
		}
	}
	st := sys.Stats()
	if err := st.DrainError(); err != nil {
		return err
	}
	enc, err := json.Marshal(st)
	if err != nil {
		return err
	}
	d := sha256.Sum256(enc)
	if first, ok := s.digest[c.key()]; !ok {
		s.digest[c.key()] = d
		s.stats[c.key()] = *st
		s.ticked[c.key()] = sys.ExecutedCycles()
	} else if d != first {
		return fmt.Errorf("statistics differ from the cell's first round")
	}
	return nil
}

// quietRunS is the sum over cells (optionally of one configuration) of the
// quiet-host Run wall over the timed rounds: rounds are interleaved, so a
// burst of host noise lands in one sample of many cells, not in all samples
// of one.
func (s *simSet) quietRunS(only core.ConfigName) float64 {
	t := 0.0
	for _, c := range s.cells {
		if only == "" || c.cfg == only {
			t += quiet(s.runS[c.key()])
		}
	}
	return t
}

type simTotals struct {
	st     sim.Stats
	ticked int64
}

// totals sums the first-round statistics over the cells.
func (s *simSet) totals() simTotals {
	var t simTotals
	for _, c := range s.cells {
		st := s.stats[c.key()]
		t.ticked += s.ticked[c.key()]
		t.st.Cycles += st.Cycles
		t.st.WarpInstrs += st.WarpInstrs
		t.st.ThreadInstrs += st.ThreadInstrs
		t.st.StackThreadInstrs += st.StackThreadInstrs
		t.st.GPUTXBytes += st.GPUTXBytes
		t.st.GPURXBytes += st.GPURXBytes
		t.st.CrossBytes += st.CrossBytes
		t.st.PCIeBytes += st.PCIeBytes
		t.st.CandidateInstances += st.CandidateInstances
		t.st.OffloadsSent += st.OffloadsSent
		t.st.OffloadsSkippedBusy += st.OffloadsSkippedBusy
		t.st.OffloadsSkippedFull += st.OffloadsSkippedFull
		t.st.L1Hits += st.L1Hits
		t.st.L1Misses += st.L1Misses
		t.st.L2Hits += st.L2Hits
		t.st.L2Misses += st.L2Misses
		t.st.StackL1Hits += st.StackL1Hits
		t.st.StackL1Misses += st.StackL1Misses
		t.st.DRAMActivations += st.DRAMActivations
		t.st.DRAMRowHits += st.DRAMRowHits
		t.st.DRAMReads += st.DRAMReads
		t.st.DRAMWrites += st.DRAMWrites
		t.st.LearnCycles += st.LearnCycles
		t.st.CopiedBytes += st.CopiedBytes
	}
	return t
}

// tomVsBaseline compares the ctrl-tmap cells with the baseline cells: the
// geometric mean over applications of the IPC ratio, and the ratio of summed
// off-chip traffic.
func (s *simSet) tomVsBaseline() (speedup, offchip float64) {
	logSum, n := 0.0, 0
	var tomB, baseB uint64
	for _, c := range s.cells {
		if c.cfg != core.CfgCtrlTmap {
			continue
		}
		tom := s.stats[c.key()]
		base := s.stats[cell{c.app, core.CfgBaseline}.key()]
		if base.IPC() > 0 && tom.IPC() > 0 {
			logSum += math.Log(tom.IPC() / base.IPC())
			n++
		}
		tomB += tom.OffChipBytes()
		baseB += base.OffChipBytes()
	}
	if n > 0 {
		speedup = math.Exp(logSum / float64(n))
	}
	return speedup, ratio(float64(tomB), float64(baseB))
}

// simSurface runs the library surface: one warm-up round that also reads
// the heap counters, then more rounds until the surface's deadline.
func (r *run) simSurface(set *simSet) {
	sc := r.root.open("surface.sim")
	defer sc.close()
	start := time.Now()
	order := func() []cell { return shuffled(r.in.rng, set.cells) }

	// The first round grows the heap and takes its page faults, and reads the
	// heap counters between cells. Its timings are kept all the same: they
	// are one more sample per cell, and the quiet-host value of a cell is not
	// moved by its slowest sample.
	var heap heapDelta
	wsc := sc.open("round warm-up")
	inRun, _ := set.round(r, wsc, order(), 0, roundOpt{timed: true, heap: &heap})
	wsc.close()
	rounds := 0
	var tracedWall time.Duration
	roundRunS := []float64{seconds(inRun)}
	for rounds < r.size.simRounds || (r.more() && r.roomFor(tracedWall)) {
		rounds++
		rsc := sc.open(fmt.Sprintf("round %d", rounds))
		inRun, wall := set.round(r, rsc, order(), rounds, roundOpt{timed: true})
		rsc.close()
		tracedWall = wall
		roundRunS = append(roundRunS, seconds(inRun))
	}

	r.paceSince(start, workDamping)
	tot := set.totals()
	winstr := float64(tot.st.WarpInstrs)
	runS := set.quietRunS("")
	perRound := make([]float64, len(roundRunS))
	for i, s := range roundRunS {
		perRound[i] = ratio(winstr/1e3, s)
	}
	r.setSamples("sim_kwinstr_per_s", ratio(winstr/1e3, runS), perRound)
	r.set("host_alloc_b_per_winstr", ratio(float64(heap.bytes), winstr))
	if !r.traced {
		return
	}

	r.setSamples("workloads.clone_us", median(set.cloneUS), set.cloneUS)
	r.setSamples("sim.new_us", median(set.newUS), set.newUS)
	r.setSamples("mem.equal_us", median(set.equalUS), set.equalUS)
	r.set("sim.run_baseline_s", set.quietRunS(core.CfgBaseline))
	r.set("sim.run_offload_s", set.quietRunS(core.CfgNoCtrlBmap))
	r.set("sim.run_tom_s", set.quietRunS(core.CfgCtrlTmap))
	r.set("sim.ns_per_winstr", ratio(runS*1e9, winstr))
	r.set("sim.ns_per_ticked_cycle", ratio(runS*1e9, float64(tot.ticked)))
	r.set("sim.cycles", float64(tot.st.Cycles))
	r.set("sim.cycles_ticked", float64(tot.ticked))
	r.set("sim.skip_ratio", 1-ratio(float64(tot.ticked), float64(tot.st.Cycles)))
	r.set("sim.warp_instrs", winstr)
	r.set("sim.thread_instrs", float64(tot.st.ThreadInstrs))
	r.set("sim.ipc", tot.st.IPC())
	r.set("sim.mallocs_per_winstr", ratio(float64(heap.mallocs), winstr))
	speedup, offchip := set.tomVsBaseline()
	r.set("sim.tom_speedup_geomean", speedup)
	r.set("sim.tom_offchip_ratio", offchip)

	cacheAcc := tot.st.L1Hits + tot.st.L1Misses + tot.st.L2Hits + tot.st.L2Misses +
		tot.st.StackL1Hits + tot.st.StackL1Misses
	r.set("cache.accesses", float64(cacheAcc))
	r.set("cache.l1_hit_ratio", ratio(float64(tot.st.L1Hits), float64(tot.st.L1Hits+tot.st.L1Misses)))
	r.set("cache.l2_hit_ratio", ratio(float64(tot.st.L2Hits), float64(tot.st.L2Hits+tot.st.L2Misses)))
	dramAcc := tot.st.DRAMReads + tot.st.DRAMWrites
	r.set("dram.accesses", float64(dramAcc))
	r.set("dram.activations", float64(tot.st.DRAMActivations))
	r.set("dram.row_hit_ratio", ratio(float64(tot.st.DRAMRowHits), float64(tot.st.DRAMRowHits+tot.st.DRAMActivations)))
	r.set("link.offchip_bytes", float64(tot.st.OffChipBytes()))
	r.set("link.cross_bytes", float64(tot.st.CrossBytes))
	r.set("link.pcie_bytes", float64(tot.st.PCIeBytes))
	r.set("offload.candidates", float64(tot.st.CandidateInstances))
	r.set("offload.sent", float64(tot.st.OffloadsSent))
	r.set("offload.sent_ratio", ratio(float64(tot.st.OffloadsSent), float64(tot.st.CandidateInstances)))
	r.set("offload.skipped_busy", float64(tot.st.OffloadsSkippedBusy))
	r.set("offload.skipped_full", float64(tot.st.OffloadsSkippedFull))
	r.set("offload.stack_instr_ratio", tot.st.OffloadedInstrFraction())
	r.set("mapping.learn_cycles", float64(tot.st.LearnCycles))
	r.set("mapping.copied_bytes", float64(tot.st.CopiedBytes))

	// Component shares: each layer's count priced by its standalone drive,
	// over the wall System.Run took. An estimate — the drive's access
	// pattern is not the run's — that says which layer a workload loads.
	drives := r.driveComponents(sc)
	r.set("cache.est_share", ratio(float64(cacheAcc)*drives.cacheNS, runS*1e9))
	r.set("dram.est_share", ratio(float64(dramAcc)*drives.dramNS, runS*1e9))
	r.set("link.est_share", ratio(float64(tot.st.OffChipBytes())/drivePacketBytes*drives.linkNS, runS*1e9))

	// The same round again without spans, then under the per-cycle loop.
	var eventRun, untracedWall, perCycleRun time.Duration
	sc.timed("round untraced", func() {
		eventRun, untracedWall = set.round(r, scope{}, order(), rounds+1, roundOpt{})
	})
	r.set("bench.trace_overhead_ratio", ratio(seconds(tracedWall), seconds(untracedWall)))
	sc.timed("round per-cycle", func() {
		perCycleRun, _ = set.round(r, scope{}, order(), rounds+2, roundOpt{perCycle: true})
	})
	r.set("sim.percycle_ratio", ratio(seconds(perCycleRun), seconds(eventRun)))

	var analyze time.Duration
	for _, k := range set.kernels() {
		var err error
		analyze += sc.timed("compiler.analyze", func() { _, err = compiler.Analyze(k, compiler.DefaultCostParams()) })
		r.op(err == nil, "compiler.Analyze %s: %v", k.Name, err)
	}
	r.set("compiler.analyze_ms", millis(analyze))
}
