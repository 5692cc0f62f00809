package core

import (
	"fmt"

	"repro/internal/area"
	"repro/internal/mapping"
	"repro/internal/obs"
)

// speedupRow computes per-workload IPC ratios of cfg over base.
func (r *Runner) speedupRow(label string, cfg, base ConfigName) (Row, error) {
	var vals []float64
	for _, abbr := range Abbrs() {
		b, err := r.Run(abbr, base)
		if err != nil {
			return Row{}, err
		}
		c, err := r.Run(abbr, cfg)
		if err != nil {
			return Row{}, err
		}
		vals = append(vals, c.Stats.IPC()/b.Stats.IPC())
	}
	return Row{Label: label, Values: withAvg(vals, GeoMean)}, nil
}

// Fig2 reproduces "Ideal speedup with near-data processing": zero-overhead
// offloading with perfect co-location versus the 68-SM baseline.
func (r *Runner) Fig2() (*Table, error) {
	row, err := r.speedupRow("ideal-NDP", CfgIdeal, CfgBaseline)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID: "fig2", Title: "Ideal speedup with near-data processing",
		Columns: workloadColumns(), Rows: []Row{row},
		Notes: []string{"paper: avg 1.58x, max 2.19x"},
	}, nil
}

// Fig3 reproduces "Effect of ideal memory mapping": the oracle best
// consecutive-2-bit mapping versus the baseline mapping, both on the NDP
// system with controlled offloading.
func (r *Runner) Fig3() (*Table, error) {
	row, err := r.speedupRow("ideal-mapping", CfgCtrlOracle, CfgCtrlBmap)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID: "fig3", Title: "Effect of ideal memory mapping on NDP performance",
		Columns: workloadColumns(), Rows: []Row{row},
		Notes: []string{"paper: avg +13% over the baseline mapping"},
	}, nil
}

// Fig5 reproduces the fixed-offset categorization of offloading candidates.
func (r *Runner) Fig5() (*Table, error) {
	rows := make([]Row, mapping.NumOffsetBuckets)
	for b := range rows {
		rows[b].Label = mapping.OffsetBucket(b).String()
	}
	var fracs []float64
	for _, abbr := range Abbrs() {
		p, err := r.Profile(abbr)
		if err != nil {
			return nil, err
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
	return &Table{
		ID: "fig5", Title: "Fixed-offset access analysis of offloading candidates (fraction of candidates)",
		Columns: workloadColumns(), Rows: rows,
		Notes: []string{fmt.Sprintf("candidates with some fixed-offset accesses: %.0f%% (paper: 85%%)",
			Mean(fracs)*100)},
	}, nil
}

// Fig6 reproduces the co-location probability under mappings learned from
// growing fractions of candidate instances.
func (r *Runner) Fig6() (*Table, error) {
	labels := []struct {
		name string
		frac float64
	}{
		{"best @ 0.1%", 0.001},
		{"best @ 0.5%", 0.005},
		{"best @ 1%", 0.01},
		{"best @ all", 1.0},
	}
	rows := make([]Row, 0, len(labels)+1)
	base := Row{Label: "baseline map"}
	for _, abbr := range Abbrs() {
		p, err := r.Profile(abbr)
		if err != nil {
			return nil, err
		}
		base.Values = append(base.Values, p.BaselineCoLocation())
	}
	base.Values = withAvg(base.Values, Mean)
	rows = append(rows, base)
	for _, l := range labels {
		row := Row{Label: l.name}
		for _, abbr := range Abbrs() {
			p, err := r.Profile(abbr)
			if err != nil {
				return nil, err
			}
			_, co := p.BestBitFromFraction(l.frac)
			row.Values = append(row.Values, co)
		}
		row.Values = withAvg(row.Values, Mean)
		rows = append(rows, row)
	}
	return &Table{
		ID: "fig6", Title: "Probability of accessing one memory stack per candidate instance",
		Columns: workloadColumns(), Rows: rows,
		Notes: []string{"paper: baseline 38%, best@0.1% 72%, oracle 75%"},
	}, nil
}

// fig8Configs are the four NDP policies of Figs. 8-10.
var fig8Configs = []struct {
	label string
	cfg   ConfigName
}{
	{"no-ctrl bmap", CfgNoCtrlBmap},
	{"no-ctrl tmap", CfgNoCtrlTmap},
	{"ctrl bmap", CfgCtrlBmap},
	{"ctrl tmap", CfgCtrlTmap},
}

// Fig8 reproduces the headline speedup comparison.
func (r *Runner) Fig8() (*Table, error) {
	t := &Table{
		ID: "fig8", Title: "Speedup with NDP offloading and memory mapping policies",
		Columns: workloadColumns(),
		Notes:   []string{"paper: ctrl+tmap avg 1.30x (max 1.76x); no-ctrl hurts"},
	}
	for _, fc := range fig8Configs {
		row, err := r.speedupRow(fc.label, fc.cfg, CfgBaseline)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	// §6.1 statistic: offloaded instruction fraction under no-ctrl/ctrl.
	for _, fc := range []struct {
		label string
		cfg   ConfigName
	}{{"offloaded% no-ctrl", CfgNoCtrlTmap}, {"offloaded% ctrl", CfgCtrlTmap}} {
		var vals []float64
		for _, abbr := range Abbrs() {
			res, err := r.Run(abbr, fc.cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, res.Stats.OffloadedInstrFraction())
		}
		t.Rows = append(t.Rows, Row{Label: fc.label, Values: withAvg(vals, Mean)})
	}
	return t, nil
}

// Fig9 reproduces the off-chip memory traffic breakdown, normalized to the
// baseline's total traffic.
func (r *Runner) Fig9() (*Table, error) {
	t := &Table{
		ID: "fig9", Title: "Off-chip traffic (normalized to baseline; RX/TX/mem-mem breakdown)",
		Columns: workloadColumns(),
		Notes:   []string{"paper: no-ctrl+tmap -38%; ctrl+tmap -13%; tmap cuts mem-mem 2.5x"},
	}
	for _, fc := range fig8Configs {
		var tot, rx, tx, mm []float64
		for _, abbr := range Abbrs() {
			b, err := r.Run(abbr, CfgBaseline)
			if err != nil {
				return nil, err
			}
			c, err := r.Run(abbr, fc.cfg)
			if err != nil {
				return nil, err
			}
			base := float64(b.Stats.OffChipBytes())
			tot = append(tot, float64(c.Stats.OffChipBytes())/base)
			rx = append(rx, float64(c.Stats.GPURXBytes)/base)
			tx = append(tx, float64(c.Stats.GPUTXBytes)/base)
			mm = append(mm, float64(c.Stats.CrossBytes)/base)
		}
		t.Rows = append(t.Rows,
			Row{Label: fc.label + " total", Values: withAvg(tot, Mean)},
			Row{Label: fc.label + " RX", Values: withAvg(rx, Mean)},
			Row{Label: fc.label + " TX", Values: withAvg(tx, Mean)},
			Row{Label: fc.label + " mem-mem", Values: withAvg(mm, Mean)},
		)
	}
	return t, nil
}

// experimentConfigs maps an experiment ID to the simulator configurations
// its table compares. The baseline is excluded (Timeline always adds it);
// profile- or estimate-based experiments (fig5, fig6, area) and the
// adaptive loop (adapt, whose passes are not plain configurations) have no
// timeline and return an error.
func experimentConfigs(id string) ([]ConfigName, error) {
	switch id {
	case "fig2":
		return []ConfigName{CfgIdeal}, nil
	case "fig3":
		return []ConfigName{CfgCtrlBmap, CfgCtrlOracle}, nil
	case "fig8", "fig9", "fig10":
		return fig9Configs(), nil
	case "fig11", "fig12":
		return []ConfigName{CfgNoCtrlTmap, CfgCtrlTmap, CfgWarp2x, CfgWarp4x}, nil
	case "fig13":
		return []ConfigName{CfgCtrlTmap, CfgInternal1x}, nil
	case "xstack":
		return []ConfigName{CfgCross0125, CfgCross025, CfgCtrlTmap, CfgCross100}, nil
	case "coherence":
		return []ConfigName{CfgCtrlTmap, CfgNoCoherence}, nil
	case "policies":
		return []ConfigName{CfgCtrlTmap, CfgIdeal, CfgCoda, CfgMPU}, nil
	case "mapstore":
		return []ConfigName{CfgCtrlTmap}, nil
	}
	return nil, fmt.Errorf("core: experiment %q has no timeline (no simulated configurations)", id)
}

// Timeline reruns an experiment's configurations (plus the baseline) with
// observers attached and returns per-interval metric snapshots — the
// off-chip traffic breakdown over time rather than as end-of-run totals —
// keyed "ABBR/config". interval is the sampling period in cycles (0 =
// obs.DefaultSampleEvery). The runs execute in parallel, each with a
// scoped view of one shared registry (see ObsPolicy); every snapshot is
// identical to what a serial run with a private registry would produce.
//
// trace, when non-nil, receives every run's lifecycle events, stamped with
// the "ABBR/config" run label and thinned to one in traceSample per kind
// per run when traceSample > 1 (tomx -trace). The caller owns the sink and
// flushes it after the call returns.
func (r *Runner) Timeline(id string, interval int64, trace obs.EventSink, traceSample int) (map[string]*obs.Snapshot, error) {
	cfgs, err := experimentConfigs(id)
	if err != nil {
		return nil, err
	}
	seen := map[ConfigName]bool{}
	var specs []RunSpec
	for _, cfg := range append([]ConfigName{CfgBaseline}, cfgs...) {
		if seen[cfg] {
			continue
		}
		seen[cfg] = true
		for _, abbr := range Abbrs() {
			spec, err := r.Spec(abbr, cfg)
			if err != nil {
				return nil, err
			}
			specs = append(specs, spec)
		}
	}
	snaps, err := r.WarmObserved(specs, ObsPolicy{
		Registry:    obs.NewRegistry(),
		SampleEvery: interval,
		Trace:       trace,
		TraceSample: traceSample,
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*obs.Snapshot, len(snaps))
	for i, snap := range snaps {
		out[specs[i].Key()] = snap
	}
	return out, nil
}

// fig9Configs lists the four NDP policies of Figs. 8-10 as ConfigNames.
func fig9Configs() []ConfigName {
	var out []ConfigName
	for _, fc := range fig8Configs {
		out = append(out, fc.cfg)
	}
	return out
}

// Fig10 reproduces the energy comparison (normalized to baseline total).
func (r *Runner) Fig10() (*Table, error) {
	t := &Table{
		ID: "fig10", Title: "Energy (normalized to baseline; SM/link/DRAM breakdown)",
		Columns: workloadColumns(),
		Notes:   []string{"paper: ctrl+tmap -11% total"},
	}
	for _, fc := range fig8Configs {
		var tot, sms, links, dram []float64
		for _, abbr := range Abbrs() {
			b, err := r.Run(abbr, CfgBaseline)
			if err != nil {
				return nil, err
			}
			c, err := r.Run(abbr, fc.cfg)
			if err != nil {
				return nil, err
			}
			base := b.Energy.Total()
			tot = append(tot, c.Energy.Total()/base)
			sms = append(sms, c.Energy.SMs/base)
			links = append(links, c.Energy.Links/base)
			dram = append(dram, c.Energy.DRAM/base)
		}
		t.Rows = append(t.Rows,
			Row{Label: fc.label + " total", Values: withAvg(tot, Mean)},
			Row{Label: fc.label + " SMs", Values: withAvg(sms, Mean)},
			Row{Label: fc.label + " links", Values: withAvg(links, Mean)},
			Row{Label: fc.label + " DRAM", Values: withAvg(dram, Mean)},
		)
	}
	return t, nil
}

// policyConfigs are the offload-policy rivals of -exp policies: TOM and
// its Fig. 2 idealization, plus the two schemes reproduced from related
// work (CODA's co-location-aware offloading, near-bank MPU offload), each
// at its natural system configuration.
var policyConfigs = []struct {
	label string
	cfg   ConfigName
}{
	{"tom", CfgCtrlTmap},
	{"ideal", CfgIdeal},
	{"coda", CfgCoda},
	{"mpu", CfgMPU},
}

// Policies compares every offload policy over all workloads against the
// no-NDP baseline: speedup rows per policy, plus the offloaded-instruction
// fraction that shows how differently the policies cut the work.
func (r *Runner) Policies() (*Table, error) {
	t := &Table{
		ID: "policies", Title: "Speedup by offload policy (vs. no-NDP baseline)",
		Columns: workloadColumns(),
		Notes: []string{
			"tom = ctrl-tmap; ideal = free offload + perfect co-location",
			"coda = drop blocks whose data splits across stacks (ctrl-tmap system)",
			"mpu = near-bank: single-access blocks, per-vault slots, cheap spawn (bmap)",
		},
	}
	for _, pc := range policyConfigs {
		row, err := r.speedupRow(pc.label, pc.cfg, CfgBaseline)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	for _, pc := range policyConfigs {
		var vals []float64
		for _, abbr := range Abbrs() {
			res, err := r.Run(abbr, pc.cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, res.Stats.OffloadedInstrFraction())
		}
		t.Rows = append(t.Rows, Row{Label: pc.label + " offloaded%", Values: withAvg(vals, Mean)})
	}
	return t, nil
}

// MapStore reports the persistent mapping registry's effect on the TOM
// configuration: each workload's ctrl-tmap run consults the session's
// mapping store (WithStoredMapping) and, on a hit, installs the stored bit
// before cycle 0 instead of learning it — zero learning-phase PCIe traffic,
// with the avoided volume reported as learn.pcie_bytes_saved. A cold store
// (or a session without -cache) learns fresh everywhere and seeds the store;
// rerunning the experiment then shows every workload installed ("stored"
// row = 1) with "learn PCIe MB" = 0.
func (r *Runner) MapStore() (*Table, error) {
	t := &Table{
		ID: "mapstore", Title: "Persistent mapping registry: TOM with stored mappings installed",
		Columns: workloadColumns(),
		Notes: []string{
			"stored: 1 = bit installed from the registry (map once, stay resident), 0 = learned this run",
			"cold sessions learn and seed the store; warm sessions install and skip the PCIe detour",
		},
	}
	var speed, pcie, saved, stored []float64
	const mb = 1 << 20
	for _, abbr := range Abbrs() {
		b, err := r.Run(abbr, CfgBaseline)
		if err != nil {
			return nil, err
		}
		spec, err := r.Spec(abbr, CfgCtrlTmap)
		if err != nil {
			return nil, err
		}
		spec, err = r.WithStoredMapping(spec)
		if err != nil {
			return nil, err
		}
		res, _, err := r.Execute(spec, nil)
		if err != nil {
			return nil, err
		}
		speed = append(speed, res.Stats.IPC()/b.Stats.IPC())
		pcie = append(pcie, float64(res.Stats.PCIeBytes)/mb)
		saved = append(saved, float64(res.Stats.LearnPCIeSaved)/mb)
		if spec.MapInstall != nil {
			stored = append(stored, 1)
		} else {
			stored = append(stored, 0)
		}
	}
	t.Rows = append(t.Rows,
		Row{Label: "speedup", Values: withAvg(speed, GeoMean)},
		Row{Label: "learn PCIe MB", Values: withAvg(pcie, Mean)},
		Row{Label: "saved PCIe MB", Values: withAvg(saved, Mean)},
		Row{Label: "stored", Values: withAvg(stored, Mean)},
	)
	return t, nil
}

// warpCapacityConfigs for Figs. 11/12.
var warpCapacityConfigs = []struct {
	label string
	cfg   ConfigName
}{
	{"no-ctrl-1X-warp", CfgNoCtrlTmap},
	{"ctrl-1X-warp", CfgCtrlTmap},
	{"ctrl-2X-warp", CfgWarp2x},
	{"ctrl-4X-warp", CfgWarp4x},
}

// Fig11 reproduces speedup versus stack-SM warp capacity.
func (r *Runner) Fig11() (*Table, error) {
	t := &Table{
		ID: "fig11", Title: "Speedup vs. memory-stack SM warp capacity",
		Columns: workloadColumns(),
		Notes:   []string{"paper: 4x capacity keeps ~1.29x speedup; RD regresses (ALU-bound)"},
	}
	for _, wc := range warpCapacityConfigs {
		row, err := r.speedupRow(wc.label, wc.cfg, CfgBaseline)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 reproduces traffic versus stack-SM warp capacity.
func (r *Runner) Fig12() (*Table, error) {
	t := &Table{
		ID: "fig12", Title: "Off-chip traffic vs. warp capacity (normalized to baseline)",
		Columns: workloadColumns(),
		Notes:   []string{"paper: 4x capacity saves 34% traffic, near no-ctrl's 38%"},
	}
	for _, wc := range warpCapacityConfigs {
		var vals []float64
		for _, abbr := range Abbrs() {
			b, err := r.Run(abbr, CfgBaseline)
			if err != nil {
				return nil, err
			}
			c, err := r.Run(abbr, wc.cfg)
			if err != nil {
				return nil, err
			}
			vals = append(vals, float64(c.Stats.OffChipBytes())/float64(b.Stats.OffChipBytes()))
		}
		t.Rows = append(t.Rows, Row{Label: wc.label, Values: withAvg(vals, Mean)})
	}
	return t, nil
}

// Fig13 reproduces the internal-bandwidth sensitivity.
func (r *Runner) Fig13() (*Table, error) {
	t := &Table{
		ID: "fig13", Title: "Speedup with different internal memory stack bandwidth",
		Columns: workloadColumns(),
		Notes:   []string{"paper: 1x internal BW within ~2% of 2x (avg 1.28x vs 1.30x)"},
	}
	for _, c := range []struct {
		label string
		cfg   ConfigName
	}{{"2X-internal-BW", CfgCtrlTmap}, {"1X-internal-BW", CfgInternal1x}} {
		row, err := r.speedupRow(c.label, c.cfg, CfgBaseline)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// CrossStackSweep reproduces the §6.5 cross-stack bandwidth sweep.
func (r *Runner) CrossStackSweep() (*Table, error) {
	t := &Table{
		ID: "xstack", Title: "Speedup vs. cross-stack link bandwidth (fraction of GPU-stack links)",
		Columns: workloadColumns(),
		Notes:   []string{"paper: +17% @0.125x, +29% @0.25x, +30% @0.5x, +31% @1x"},
	}
	for _, c := range []struct {
		label string
		cfg   ConfigName
	}{
		{"0.125x", CfgCross0125}, {"0.25x", CfgCross025},
		{"0.5x (default)", CfgCtrlTmap}, {"1x", CfgCross100},
	} {
		row, err := r.speedupRow(c.label, c.cfg, CfgBaseline)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// CoherenceOverhead reproduces the §4.4.2 measurement: slowdown of the
// cache-correctness protocol versus idealized coherence.
func (r *Runner) CoherenceOverhead() (*Table, error) {
	var vals []float64
	for _, abbr := range Abbrs() {
		with, err := r.Run(abbr, CfgCtrlTmap)
		if err != nil {
			return nil, err
		}
		without, err := r.Run(abbr, CfgNoCoherence)
		if err != nil {
			return nil, err
		}
		vals = append(vals, float64(with.Stats.Cycles)/float64(without.Stats.Cycles)-1)
	}
	return &Table{
		ID: "coherence", Title: "Offload coherence protocol overhead (fractional slowdown)",
		Columns: workloadColumns(),
		Rows:    []Row{{Label: "overhead", Values: withAvg(vals, Mean)}},
		Notes:   []string{"paper: 1.2% average overhead"},
	}, nil
}

// AreaTable reproduces the §6.6 hardware cost estimate.
func AreaTable() *Table {
	e := area.Estimate64()
	return &Table{
		ID: "area", Title: "TOM hardware storage and area (§6.6)",
		Columns: []string{"value"},
		Rows: []Row{
			{Label: "analyzer bits/SM", Values: []float64{float64(e.AnalyzerBitsPerSM)}},
			{Label: "alloc table bits", Values: []float64{float64(e.AllocTableBits)}},
			{Label: "metadata bits/SM", Values: []float64{float64(e.MetadataBitsPerSM)}},
			{Label: "total bits", Values: []float64{float64(e.TotalBits)}},
			{Label: "area mm^2", Values: []float64{e.AreaMM2}},
			{Label: "GPU fraction %", Values: []float64{e.GPUFraction * 100}},
		},
		Notes: []string{"paper: 1,920 b/SM + 9,700 b + 10,320 b/SM = 0.11 mm^2, 0.018% of GPU"},
	}
}

// AllExperiments runs every reproduction and returns the tables in paper
// order.
func (r *Runner) AllExperiments() ([]*Table, error) {
	type fn struct {
		name string
		f    func() (*Table, error)
	}
	fns := []fn{
		{"fig2", r.Fig2}, {"fig3", r.Fig3}, {"fig5", r.Fig5}, {"fig6", r.Fig6},
		{"fig8", r.Fig8}, {"fig9", r.Fig9}, {"fig10", r.Fig10},
		{"fig11", r.Fig11}, {"fig12", r.Fig12}, {"fig13", r.Fig13},
		{"xstack", r.CrossStackSweep}, {"coherence", r.CoherenceOverhead},
		{"policies", r.Policies}, {"adapt", r.Adapt}, {"mapstore", r.MapStore},
	}
	if err := r.Warm(FullMatrix()); err != nil {
		return nil, err
	}
	var out []*Table
	for _, e := range fns {
		t, err := e.f()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.name, err)
		}
		out = append(out, t)
	}
	out = append(out, AreaTable())
	return out, nil
}

// Experiment runs a single experiment by ID ("fig2".."fig13", "xstack",
// "coherence", "area").
func (r *Runner) Experiment(id string) (*Table, error) {
	switch id {
	case "fig2":
		return r.Fig2()
	case "fig3":
		return r.Fig3()
	case "fig5":
		return r.Fig5()
	case "fig6":
		return r.Fig6()
	case "fig8":
		return r.Fig8()
	case "fig9":
		return r.Fig9()
	case "fig10":
		return r.Fig10()
	case "fig11":
		return r.Fig11()
	case "fig12":
		return r.Fig12()
	case "fig13":
		return r.Fig13()
	case "xstack":
		return r.CrossStackSweep()
	case "coherence":
		return r.CoherenceOverhead()
	case "policies":
		return r.Policies()
	case "adapt":
		return r.Adapt()
	case "mapstore":
		return r.MapStore()
	case "area":
		return AreaTable(), nil
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}

// ExperimentIDs lists all experiment identifiers in paper order.
func ExperimentIDs() []string {
	return []string{"fig2", "fig3", "fig5", "fig6", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "xstack", "coherence", "policies", "adapt",
		"mapstore", "area"}
}
