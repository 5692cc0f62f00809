package main

// metricDef names one metric. The lists below are the benchmark's contract:
// BENCHMARK.json repeats them (bench_test.go keeps the two in step), and
// later changes refer to a metric by one of these names on one workload.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the worsening that counts as a regression
	// exact marks a count that must repeat bit for bit for a seed; -compare
	// demands equality of these instead of judging them better or worse.
	exact bool
}

// endToEnd is what a user of the simulator waits for or pays, measured with
// tracing off.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sim_kwinstr_per_s", unit: "kwinstr/s", better: "higher", bound: 0.25},
	{name: "host_alloc_b_per_winstr", unit: "B/winstr", better: "lower", bound: 0.02},
	{name: "sweep_cold_s", unit: "s", better: "lower", bound: 0.25},
	{name: "sweep_warm_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "sweep_peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "batch_cold_s", unit: "s", better: "lower", bound: 0.25},
	{name: "hit_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "disk_hit_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "hit_under_miss_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "batch_under_load_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer is measured by the traced run; the layer is the module name
// before the first dot.
var perLayer = []metricDef{
	{name: "workloads.build_s", unit: "s", better: "lower"},
	{name: "workloads.clone_us", unit: "us", better: "lower"},
	{name: "exec.functional_s", unit: "s", better: "lower"},
	{name: "exec.functional_kwinstr_per_s", unit: "kwinstr/s", better: "higher"},
	{name: "compiler.analyze_ms", unit: "ms", better: "lower"},

	{name: "sim.new_us", unit: "us", better: "lower"},
	{name: "sim.run_baseline_s", unit: "s", better: "lower"},
	{name: "sim.run_offload_s", unit: "s", better: "lower"},
	{name: "sim.run_tom_s", unit: "s", better: "lower"},
	{name: "sim.ns_per_winstr", unit: "ns", better: "lower"},
	{name: "sim.ns_per_ticked_cycle", unit: "ns", better: "lower"},
	{name: "sim.profile_s", unit: "s", better: "lower"},
	{name: "sim.percycle_ratio", unit: "ratio", better: "higher"},
	{name: "sim.cycles", unit: "count", better: "lower", exact: true},
	{name: "sim.cycles_ticked", unit: "count", better: "lower", exact: true},
	{name: "sim.skip_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "sim.warp_instrs", unit: "count", better: "lower", exact: true},
	{name: "sim.thread_instrs", unit: "count", better: "lower", exact: true},
	{name: "sim.ipc", unit: "ratio", better: "higher", exact: true},
	{name: "sim.mallocs_per_winstr", unit: "ratio", better: "lower"},
	{name: "sim.tom_speedup_geomean", unit: "ratio", better: "higher", exact: true},
	{name: "sim.tom_offchip_ratio", unit: "ratio", better: "lower", exact: true},

	{name: "cache.accesses", unit: "count", better: "lower", exact: true},
	{name: "cache.l1_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "cache.l2_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "cache.drive_ns_per_access", unit: "ns", better: "lower"},
	{name: "cache.est_share", unit: "ratio", better: "lower"},

	{name: "dram.accesses", unit: "count", better: "lower", exact: true},
	{name: "dram.activations", unit: "count", better: "lower", exact: true},
	{name: "dram.row_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "dram.drive_ns_per_req", unit: "ns", better: "lower"},
	{name: "dram.est_share", unit: "ratio", better: "lower"},

	{name: "link.offchip_bytes", unit: "B", better: "lower", exact: true},
	{name: "link.cross_bytes", unit: "B", better: "lower", exact: true},
	{name: "link.pcie_bytes", unit: "B", better: "lower", exact: true},
	{name: "link.drive_ns_per_packet", unit: "ns", better: "lower"},
	{name: "link.est_share", unit: "ratio", better: "lower"},

	{name: "offload.candidates", unit: "count", better: "lower", exact: true},
	{name: "offload.sent", unit: "count", better: "higher", exact: true},
	{name: "offload.sent_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "offload.skipped_busy", unit: "count", better: "lower", exact: true},
	{name: "offload.skipped_full", unit: "count", better: "lower", exact: true},
	{name: "offload.stack_instr_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "mapping.learn_cycles", unit: "count", better: "lower", exact: true},
	{name: "mapping.copied_bytes", unit: "B", better: "lower", exact: true},

	{name: "mem.equal_us", unit: "us", better: "lower"},
	{name: "obs.observed_ratio", unit: "ratio", better: "lower"},

	{name: "core.session_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "core.diskcache_put_us", unit: "us", better: "lower"},
	{name: "core.diskcache_get_us", unit: "us", better: "lower"},
	{name: "core.spec_digest_us", unit: "us", better: "lower"},
	{name: "core.sched_dispatch_us", unit: "us", better: "lower"},
	{name: "core.warm_matrix_s", unit: "s", better: "lower"},
	{name: "core.tables_s", unit: "s", better: "lower"},
	{name: "core.replay_matrix_s", unit: "s", better: "lower"},
	{name: "core.replay_tables_s", unit: "s", better: "lower"},

	{name: "tomx.start_ms", unit: "ms", better: "lower"},
	{name: "tomx.cpu_s", unit: "s", better: "lower"},
	{name: "tomx.all_cold_s", unit: "s", better: "lower"},
	{name: "tomx.all_warm_s", unit: "s", better: "lower"},
	{name: "tomx.parallel_eff", unit: "ratio", better: "higher"},
	{name: "tomx.warm_rss_mb", unit: "MB", better: "lower"},
	{name: "tomx.runs_simulated", unit: "count", better: "lower", exact: true},
	{name: "tomx.cache_bytes", unit: "B", better: "lower"},

	{name: "tomserve.start_ms", unit: "ms", better: "lower"},
	{name: "tomserve.batch_cells_per_s", unit: "1/s", better: "higher"},
	{name: "tomserve.batch_cycles_total", unit: "count", better: "lower", exact: true},
	{name: "tomserve.hit_ms_p90", unit: "ms", better: "lower"},
	{name: "tomserve.hit_ms_p99", unit: "ms", better: "lower"},
	{name: "tomserve.disk_hit_ms_p90", unit: "ms", better: "lower"},
	{name: "tomserve.hit_under_miss_ms_p90", unit: "ms", better: "lower"},
	{name: "tomserve.hit_under_miss_ms_p99", unit: "ms", better: "lower"},
	{name: "tomserve.hits_during_miss", unit: "count", better: "higher"},
	{name: "tomserve.resp_bytes_per_run", unit: "B", better: "lower"},
	{name: "tomserve.rejected_429", unit: "count", better: "lower", exact: true},
	{name: "tomserve.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "tomserve.runs_simulated", unit: "count", better: "lower", exact: true},
	{name: "tomserve.runs_hits", unit: "count", better: "higher"},

	{name: "bench.go_build_s", unit: "s", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// metric is one measured value. Spread is present when the value is a
// statistic of repeats taken inside the run. A host time is normalised by
// the speedometer (speed.go): Raw is the value as measured, Slowdown what the
// speedometer read beside it; both are absent for anything else.
type metric struct {
	Value    float64  `json:"value"`
	Unit     string   `json:"unit"`
	Raw      float64  `json:"raw,omitempty"`
	Slowdown float64  `json:"slowdown,omitempty"`
	Spread   *summary `json:"spread,omitempty"`
}
