package main

import (
	"math"
	"math/rand"

	"repro/internal/core"
)

// The simulator has three surfaces a user touches: the library (build a
// workload, sim.New, System.Run, verify), the tomx sweep CLI, and the
// tomserve batch service. Every run goes through all three, so each
// end-to-end metric is measured on each workload. A workload is a set of
// inputs: which Table 2 applications feed the library cells and the service
// batches.
const (
	surfaceSim   = "sim"
	surfaceSweep = "sweep"
	surfaceServe = "serve"
)

// surfaces is the order a run visits them in and the share of --seconds
// each gets. The service surface reports five of the timings and needs a
// fresh server for each sample of three of them, so it gets the most.
var surfaces = []struct {
	name  string
	share float64
}{{surfaceSim, 0.27}, {surfaceSweep, 0.30}, {surfaceServe, 0.43}}

type workload struct {
	name string
	why  string
	// apps × simConfigs are the cells the library surface runs, and at the
	// service scale the batch the service surface misses on, then hits in
	// memory, then hits on disk; apps × as many other configurations is the
	// batch it runs beside hits.
	apps []string
}

// simConfigs use the timing model three ways: no offload, every candidate
// offloaded on the baseline mapping (at these scales this carries the
// offload and stack-SM path), and TOM's learning phase plus gating.
var simConfigs = []core.ConfigName{core.CfgBaseline, core.CfgNoCtrlBmap, core.CfgCtrlTmap}

// sweepExp is the tomx experiment of the sweep surface: Fig. 2, twenty
// simulations (every application under baseline and ideal) run one after the
// other, which is how tomx runs any single experiment. It takes a second and
// a half cold, so a run repeats it often enough for a steady quartile. tomx
// cannot restrict an experiment to some applications, so both workloads run
// the same sweep; only -exp all simulates in parallel, and the traced pass
// runs that once (tomx.all_cold_s).
const sweepExp = "fig2"

var sweepConfigs = []core.ConfigName{core.CfgBaseline, core.CfgIdeal}

// computeApps issue at most 0.08 DRAM accesses per warp-instruction, so
// the interpreter and SM issue do most of the host work; memoryApps issue
// 0.13 to 0.33, so vaults, links, caches and wheel events do. Together they
// are Table 2.
var (
	computeApps = []string{"KM", "HW", "RAY", "RD"}
	memoryApps  = []string{"FWT", "CFD", "BFS", "LIB", "SP", "BP"}
)

var workloadTable = []workload{
	{
		name: "compute",
		why:  "KM/HW/RAY/RD as library cells, tomserve batches and the tomx sweep: interpreter and SM issue dominate, so an exec or scoreboard change shows here and a dram/link change should not",
		apps: computeApps,
	},
	{
		name: "memory",
		why:  "FWT/CFD/BFS/LIB/SP/BP the same way: vaults, links, caches, wheel events and per-request allocation dominate; the complement of compute",
		apps: memoryApps,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Nominal problem scales. The sweep and service scale is the one
// BENCH_2026-08-08.json was recorded at, so its cycle total is a witness.
// The library scale makes a round of the eighteen memory cells about 2.5 s
// on two cores, which leaves room for six rounds in a run.
const (
	nominalSimScale   = 0.05
	nominalSweepScale = 0.03
	nominalServeScale = 0.03
	// scaleJitter is how far a seed other than 1 moves each scale. Host time
	// is close to proportional to scale, so the draw is kept well inside the
	// tightest bound; seeds mainly vary orders and request streams.
	scaleJitter = 0.01
)

// inputs is everything a run derives from its seed; the programs under test
// see only these.
type inputs struct {
	Seed       int64   `json:"seed"`
	SimScale   float64 `json:"sim_scale"`
	SweepScale float64 `json:"sweep_scale"`
	ServeScale float64 `json:"serve_scale"`
	rng        *rand.Rand
}

func newInputs(seed int64) *inputs {
	in := &inputs{Seed: seed, rng: rand.New(rand.NewSource(seed)),
		SimScale: nominalSimScale, SweepScale: nominalSweepScale, ServeScale: nominalServeScale}
	if seed != 1 {
		in.SimScale = jitter(in.rng, nominalSimScale)
		in.SweepScale = jitter(in.rng, nominalSweepScale)
		in.ServeScale = jitter(in.rng, nominalServeScale)
	}
	return in
}

// jitter draws from nominal × [1-scaleJitter, 1+scaleJitter], kept to four
// significant decimals so the scale prints and digests the same everywhere.
func jitter(rng *rand.Rand, nominal float64) float64 {
	f := 1 + scaleJitter*(2*rng.Float64()-1)
	return math.Round(nominal*f*1e4) / 1e4
}

// cell is one application × configuration.
type cell struct {
	app string
	cfg core.ConfigName
}

func (c cell) key() string { return c.app + "/" + string(c.cfg) }

func cross(apps []string, cfgs []core.ConfigName) []cell {
	var out []cell
	for _, a := range apps {
		for _, c := range cfgs {
			out = append(out, cell{a, c})
		}
	}
	return out
}

// otherConfigs is the first len(cfgs) registered configurations not in cfgs.
func otherConfigs(cfgs []core.ConfigName) []core.ConfigName {
	in := map[core.ConfigName]bool{}
	for _, c := range cfgs {
		in[c] = true
	}
	var out []core.ConfigName
	for _, c := range core.AllConfigNames() {
		if !in[c] && len(out) < len(cfgs) {
			out = append(out, c)
		}
	}
	return out
}

func shuffled[T any](rng *rand.Rand, xs []T) []T {
	out := append([]T(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
