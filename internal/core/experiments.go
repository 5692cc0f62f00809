package core

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// metric is one per-workload number of a table row: a measurement of a
// configuration's run c against the group's base run b, and how the row
// averages it.
type metric struct {
	suffix string // appended to the configuration's label
	avg    func([]float64) float64
	of     func(c, b *RunResult) float64
}

// The measurements: IPC ratio, offloaded instruction fraction, fractional
// slowdown, and a run's off-chip bytes or energy — whole or one component —
// normalized to the base run's total.
func ipcRatio(c, b *RunResult) float64      { return c.Stats.IPC() / b.Stats.IPC() }
func offloadedFrac(c, _ *RunResult) float64 { return c.Stats.OffloadedInstrFraction() }
func slowdown(c, b *RunResult) float64 {
	return float64(c.Stats.Cycles)/float64(b.Stats.Cycles) - 1
}
func trafficRatio(c, b *RunResult) float64 {
	return float64(c.Stats.OffChipBytes()) / float64(b.Stats.OffChipBytes())
}

var (
	speedup      = metric{"", GeoMean, ipcRatio}
	offloaded    = metric{"", Mean, offloadedFrac}
	overhead     = metric{"", Mean, slowdown}
	traffic      = metric{"", Mean, trafficRatio}
	trafficParts = []metric{
		{" total", Mean, trafficRatio},
		{" RX", Mean, func(c, b *RunResult) float64 { return float64(c.Stats.GPURXBytes) / float64(b.Stats.OffChipBytes()) }},
		{" TX", Mean, func(c, b *RunResult) float64 { return float64(c.Stats.GPUTXBytes) / float64(b.Stats.OffChipBytes()) }},
		{" mem-mem", Mean, func(c, b *RunResult) float64 { return float64(c.Stats.CrossBytes) / float64(b.Stats.OffChipBytes()) }},
	}
	energyParts = []metric{
		{" total", Mean, func(c, b *RunResult) float64 { return c.Energy.Total() / b.Energy.Total() }},
		{" SMs", Mean, func(c, b *RunResult) float64 { return c.Energy.SMs / b.Energy.Total() }},
		{" links", Mean, func(c, b *RunResult) float64 { return c.Energy.Links / b.Energy.Total() }},
		{" DRAM", Mean, func(c, b *RunResult) float64 { return c.Energy.DRAM / b.Energy.Total() }},
	}
)

// labelled is one configuration under the name a table gives it.
type labelled struct {
	label string
	cfg   ConfigName
}

// group is a block of rows: labelled configurations × metrics, each measured
// against the same base configuration, one row per (configuration, metric)
// in that order.
type group struct {
	base    ConfigName
	cfgs    []labelled
	metrics []metric
}

// experiment is one table of the evaluation. Most are row groups and nothing
// else; an irregular one has a build function, which fills in what groups
// cannot express from profiles or estimates (it simulates nothing).
type experiment struct {
	id, title string
	notes     []string
	groups    []group
	build     func(*Session, *Table) error
}

// ndpPolicies are the four NDP policies of Figs. 8-10, warpCapacities the
// stack-SM warp capacities of Figs. 11/12 (the last adds §6.4's ALU-aware
// gate at 4x), and rivals the offload policies of -exp policies: TOM and its
// Fig. 2 idealization, plus the two schemes reproduced from related work
// (CODA's co-location-aware offloading, near-bank MPU offload), each at its
// natural system configuration.
var (
	ndpPolicies = []labelled{
		{"no-ctrl bmap", CfgNoCtrlBmap}, {"no-ctrl tmap", CfgNoCtrlTmap},
		{"ctrl bmap", CfgCtrlBmap}, {"ctrl tmap", CfgCtrlTmap},
	}
	warpCapacities = []labelled{
		{"no-ctrl-1X-warp", CfgNoCtrlTmap}, {"ctrl-1X-warp", CfgCtrlTmap},
		{"ctrl-2X-warp", CfgWarp2x}, {"ctrl-4X-warp", CfgWarp4x},
		{"ctrl-4X-warp+alu", CfgWarp4xALU},
	}
	rivals = []labelled{{"tom", CfgCtrlTmap}, {"ideal", CfgIdeal}, {"coda", CfgCoda}, {"mpu", CfgMPU}}
)

// experiments is the evaluation, in paper order: Figs. 2-13, §6.5, §4.4.2,
// this repository's policy table, and §6.6. It is the only list of them:
// Experiment, ExperimentIDs, AllExperiments and its warm set, and Timeline
// all read it.
var experiments = []experiment{
	{id: "fig2", title: "Ideal speedup with near-data processing",
		notes: []string{"paper: avg 1.58x, max 2.19x"},
		// Zero-overhead offloading with perfect co-location versus the
		// 68-SM baseline.
		groups: []group{{CfgBaseline, []labelled{{"ideal-NDP", CfgIdeal}}, []metric{speedup}}}},
	{id: "fig3", title: "Effect of ideal memory mapping on NDP performance",
		notes: []string{"paper: avg +13% over the baseline mapping"},
		// The oracle best consecutive-2-bit mapping, the learned transparent
		// mapping, and that learned bit preset with learning free, versus
		// the baseline mapping, all on the NDP system with controlled
		// offloading.
		groups: []group{{CfgCtrlBmap, []labelled{
			{"ideal-mapping", CfgCtrlOracle}, {"learned-mapping", CfgCtrlTmap}, {"preset-mapping", CfgCtrlTmapPreset},
		}, []metric{speedup}}}},
	{id: "fig5", title: "Fixed-offset access analysis of offloading candidates (fraction of candidates)",
		build: fixedOffsetRows},
	{id: "fig6", title: "Probability of accessing one memory stack per candidate instance",
		notes: []string{"paper: baseline 38%, best@0.1% 72%, oracle 75%"},
		build: coLocationRows},
	{id: "fig8", title: "Speedup with NDP offloading and memory mapping policies",
		notes: []string{"paper: ctrl+tmap avg 1.30x (max 1.76x); no-ctrl hurts"},
		groups: []group{
			{CfgBaseline, ndpPolicies, []metric{speedup}},
			// §6.1 statistic: offloaded instruction fraction under no-ctrl/ctrl.
			{CfgBaseline, []labelled{{"offloaded% no-ctrl", CfgNoCtrlTmap}, {"offloaded% ctrl", CfgCtrlTmap}}, []metric{offloaded}},
		}},
	{id: "fig9", title: "Off-chip traffic (normalized to baseline; RX/TX/mem-mem breakdown)",
		notes:  []string{"paper: no-ctrl+tmap -38%; ctrl+tmap -13%; tmap cuts mem-mem 2.5x"},
		groups: []group{{CfgBaseline, ndpPolicies, trafficParts}}},
	{id: "fig10", title: "Energy (normalized to baseline; SM/link/DRAM breakdown)",
		notes:  []string{"paper: ctrl+tmap -11% total"},
		groups: []group{{CfgBaseline, ndpPolicies, energyParts}}},
	{id: "fig11", title: "Speedup vs. memory-stack SM warp capacity",
		notes:  []string{"paper: 4x capacity keeps ~1.29x speedup; RD regresses (ALU-bound)"},
		groups: []group{{CfgBaseline, warpCapacities, []metric{speedup}}}},
	{id: "fig12", title: "Off-chip traffic vs. warp capacity (normalized to baseline)",
		notes:  []string{"paper: 4x capacity saves 34% traffic, near no-ctrl's 38%"},
		groups: []group{{CfgBaseline, warpCapacities, []metric{traffic}}}},
	{id: "fig13", title: "Speedup with different internal memory stack bandwidth",
		notes: []string{"paper: 1x internal BW within ~2% of 2x (avg 1.28x vs 1.30x)"},
		groups: []group{{CfgBaseline,
			[]labelled{{"2X-internal-BW", CfgCtrlTmap}, {"1X-internal-BW", CfgInternal1x}}, []metric{speedup}}}},
	{id: "xstack", title: "Speedup vs. cross-stack link bandwidth (fraction of GPU-stack links)",
		notes: []string{"paper: +17% @0.125x, +29% @0.25x, +30% @0.5x, +31% @1x"},
		groups: []group{{CfgBaseline, []labelled{
			{"0.125x", CfgCross0125}, {"0.25x", CfgCross025}, {"0.5x (default)", CfgCtrlTmap}, {"1x", CfgCross100},
		}, []metric{speedup}}}},
	{id: "coherence", title: "Offload coherence protocol overhead (fractional slowdown)",
		notes: []string{"paper: 1.2% average overhead"},
		// §4.4.2: the cache-correctness protocol versus idealized coherence.
		groups: []group{{CfgNoCoherence, []labelled{{"overhead", CfgCtrlTmap}}, []metric{overhead}}}},
	{id: "policies", title: "Speedup by offload policy (vs. no-NDP baseline)",
		notes: []string{
			"tom = ctrl-tmap; ideal = free offload + perfect co-location",
			"coda = drop blocks whose data splits across stacks (ctrl-tmap system)",
			"mpu = near-bank: single-access blocks, per-vault slots, cheap spawn (bmap)",
		},
		// The offloaded fraction shows how differently the policies cut the work.
		groups: []group{
			{CfgBaseline, rivals, []metric{speedup}},
			{CfgBaseline, rivals, []metric{{" offloaded%", Mean, offloadedFrac}}},
		}},
	{id: "area", title: "TOM hardware storage and area (§6.6)",
		notes: []string{"paper: 1,920 b/SM + 9,700 b + 10,320 b/SM = 0.11 mm^2, 0.018% of GPU"},
		build: areaRows},
}

// configs lists the distinct configurations the row groups read, in order of
// first use.
func (e *experiment) configs() []ConfigName {
	var out []ConfigName
	for _, g := range e.groups {
		out = append(out, g.base)
		for _, lc := range g.cfgs {
			out = append(out, lc.cfg)
		}
	}
	return distinct(out)
}

func distinct(cfgs []ConfigName) []ConfigName {
	var out []ConfigName
	seen := map[ConfigName]bool{}
	for _, c := range cfgs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// pairsOf lists every workload under each configuration, configuration-major:
// run in that order, a parallel sweep peaks lower than workload-major (tomx
// -exp fig2 -scale 0.03 on 2 cores: about 22 MB resident against 26).
func pairsOf(cfgs []ConfigName) []Pair {
	var out []Pair
	for _, cfg := range cfgs {
		for _, abbr := range Abbrs() {
			out = append(out, Pair{Abbr: abbr, Config: cfg})
		}
	}
	return out
}

// table builds the experiment's table from res and its build function.
func (e *experiment) table(r *Session, res map[Pair]*RunResult) (*Table, error) {
	t := &Table{ID: e.id, Title: e.title, Columns: workloadColumns(), Notes: append([]string{}, e.notes...)}
	for _, g := range e.groups {
		for _, lc := range g.cfgs {
			vals := make([][]float64, len(g.metrics))
			for _, abbr := range Abbrs() {
				b, c := res[Pair{abbr, g.base}], res[Pair{abbr, lc.cfg}]
				for i, m := range g.metrics {
					vals[i] = append(vals[i], m.of(c, b))
				}
			}
			for i, m := range g.metrics {
				t.Rows = append(t.Rows, Row{Label: lc.label + m.suffix, Values: withAvg(vals[i], m.avg)})
			}
		}
	}
	if e.build != nil {
		if err := e.build(r, t); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// fixedOffsetRows is Fig. 5: the fixed-offset categorization of offloading
// candidates.
func fixedOffsetRows(r *Session, t *Table) error {
	rows := make([]Row, mapping.NumOffsetBuckets)
	for b := range rows {
		rows[b].Label = mapping.OffsetBucket(b).String()
	}
	var fracs []float64
	for _, abbr := range Abbrs() {
		p, err := r.profile(abbr, r.scale)
		if err != nil {
			return err
		}
		buckets := p.OffsetBuckets()
		total := 0
		for _, n := range buckets {
			total += n
		}
		for b, n := range buckets {
			v := 0.0
			if total > 0 {
				v = float64(n) / float64(total)
			}
			rows[b].Values = append(rows[b].Values, v)
		}
		fracs = append(fracs, p.FixedOffsetCandidateFraction())
	}
	for b := range rows {
		rows[b].Values = withAvg(rows[b].Values, Mean)
	}
	t.Rows = rows
	t.Notes = append(t.Notes, fmt.Sprintf("candidates with some fixed-offset accesses: %.0f%% (paper: 85%%)",
		Mean(fracs)*100))
	return nil
}

// coLocationRows is Fig. 6: the co-location probability under the baseline
// mapping and under mappings learned from growing fractions of candidate
// instances.
func coLocationRows(r *Session, t *Table) error {
	for _, l := range []struct {
		name string
		frac float64 // 0 = the baseline mapping
	}{
		{"baseline map", 0}, {"best @ 0.1%", 0.001}, {"best @ 0.5%", 0.005}, {"best @ 1%", 0.01}, {"best @ all", 1.0},
	} {
		row := Row{Label: l.name}
		for _, abbr := range Abbrs() {
			p, err := r.profile(abbr, r.scale)
			if err != nil {
				return err
			}
			co := p.BaselineCoLocation()
			if l.frac > 0 {
				_, co = p.BestBitFromFraction(l.frac)
			}
			row.Values = append(row.Values, co)
		}
		row.Values = withAvg(row.Values, Mean)
		t.Rows = append(t.Rows, row)
	}
	return nil
}

// areaRows is the §6.6 hardware cost estimate; it simulates nothing.
func areaRows(_ *Session, t *Table) error {
	e := area.Estimate64()
	t.Columns = []string{"value"}
	t.Rows = []Row{
		{"analyzer bits/SM", []float64{float64(e.AnalyzerBitsPerSM)}},
		{"alloc table bits", []float64{float64(e.AllocTableBits)}},
		{"metadata bits/SM", []float64{float64(e.MetadataBitsPerSM)}},
		{"total bits", []float64{float64(e.TotalBits)}},
		{"area mm^2", []float64{e.AreaMM2}},
		{"GPU fraction %", []float64{e.GPUFraction * 100}},
	}
	return nil
}

func experimentByID(id string) (*experiment, error) {
	for i := range experiments {
		if experiments[i].id == id {
			return &experiments[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}

// ExperimentIDs lists all experiment identifiers in paper order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i := range experiments {
		ids[i] = experiments[i].id
	}
	return ids
}

// Experiment runs a single experiment by ID (see ExperimentIDs): the runs its
// row groups read execute in parallel, then the table is built from them.
func (r *Session) Experiment(id string) (*Table, error) {
	e, err := experimentByID(id)
	if err != nil {
		return nil, err
	}
	res, err := r.runPairs(pairsOf(e.configs()))
	if err != nil {
		return nil, err
	}
	return e.table(r, res)
}

// ExperimentPairs lists the (workload, configuration) runs the tables read:
// every workload under every configuration some experiment names, once each,
// and nothing else.
func ExperimentPairs() []Pair {
	var cfgs []ConfigName
	for i := range experiments {
		cfgs = append(cfgs, experiments[i].configs()...)
	}
	return pairsOf(distinct(cfgs))
}

// AllExperiments runs every reproduction and returns the tables in paper
// order; ExperimentPairs execute in parallel first.
func (r *Session) AllExperiments() ([]*Table, error) {
	res, err := r.runPairs(ExperimentPairs())
	if err != nil {
		return nil, err
	}
	var out []*Table
	for i := range experiments {
		t, err := experiments[i].table(r, res)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", experiments[i].id, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// TimelineConfigs lists the configurations Timeline reruns for an
// experiment: the baseline, then every configuration its table reads. An
// experiment that simulates no named configuration (fig5, fig6 and area are
// profile- or estimate-based) has no timeline and returns an error.
func TimelineConfigs(id string) ([]ConfigName, error) {
	e, err := experimentByID(id)
	if err != nil {
		return nil, err
	}
	cfgs := e.configs()
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("core: experiment %q has no timeline (no simulated configurations)", id)
	}
	return distinct(append([]ConfigName{CfgBaseline}, cfgs...)), nil
}

// Timeline reruns an experiment's configurations (TimelineConfigs) with
// observers attached and returns per-interval metric snapshots — the
// off-chip traffic breakdown over time rather than as end-of-run totals —
// keyed "ABBR/config". interval is the sampling period in cycles (0 =
// obs.DefaultSampleEvery). The runs execute in parallel, each through
// Observe with its own registry, so every snapshot is what a serial run
// would produce.
//
// trace, when non-nil, receives every run's lifecycle events, stamped with
// the "ABBR/config" run label and thinned to one in traceSample per kind
// per run when traceSample > 1 (tomx -trace). It must be safe for
// concurrent Emit; the caller owns it.
func (r *Session) Timeline(id string, interval int64, trace obs.EventSink, traceSample int) (map[string]*obs.Snapshot, error) {
	cfgs, err := TimelineConfigs(id)
	if err != nil {
		return nil, err
	}
	pairs := pairsOf(cfgs)
	snaps := make([]*obs.Snapshot, len(pairs))
	err = forEach(len(pairs), func(i int) string { return pairs[i].Key() }, func(i int) error {
		spec, err := r.Spec(pairs[i].Abbr, pairs[i].Config)
		if err != nil {
			return err
		}
		_, snaps[i], err = r.Observe(spec, trace, traceSample, interval)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*obs.Snapshot, len(pairs))
	for i, p := range pairs {
		out[p.Key()] = snaps[i]
	}
	return out, nil
}
