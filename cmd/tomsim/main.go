// Command tomsim runs one workload under one system configuration and
// prints the measured statistics.
//
//	tomsim -workload LIB -config ctrl-tmap -scale 1.0
//	tomsim -workload LIB -policy coda                 # override the offload policy
//	tomsim -workload LIB -cache                       # replay from .tomcache/
//	tomsim -workload LIB -trace out.trace -metrics out.json
//	tomsim -workload LIB -trace out.trace -trace-sample 64
//	tomsim -workload LIB -cache -mapping-store        # install a stored data mapping
//	tomsim -list
//
// -trace writes the offload lifecycle (candidate → gate/send → spawn → ack
// → finish) to a file in the compact binary encoding; decode and filter it
// with cmd/tomtrace. -trace-sample N keeps one event in N per kind, bounding
// trace volume on full-scale runs (the trace then ends with per-kind
// trace_sampled summaries of what was thinned). -metrics writes the
// end-of-run registry snapshot — per-interval off-chip traffic, per-stack
// pending-offload occupancy, link utilization, and queue depths. See
// docs/OBSERVABILITY.md for all three schemas. -cache persists and replays
// plain (unobserved) runs under -cache-dir; observed runs always execute,
// since only an execution can produce time series.
//
// After the offloads line comes the per-PC gate table (Stats.PCStats): one
// line per candidate start PC that reached an offload decision, with its gate
// rate and mean observed trip count. It is part of the cached record, so a
// replayed run prints the same lines.
//
// -mapping-store consults the persistent mapping registry under
// -cache-dir/mappings/ (see docs/RUNCACHE.md): a transparent-mapping run
// whose (workload, data-structure identity, configuration family) key has a
// stored record installs the learned bit before cycle 0 — no learning
// phase, no PCIe detour, only the one-time copy — and reports the avoided
// traffic. Fresh learning runs under -cache always seed the registry,
// whether or not -mapping-store is set.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	tom "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
)

func main() {
	workload := flag.String("workload", "LIB", "workload abbreviation (see -list)")
	config := flag.String("config", string(tom.TOM), "system configuration name")
	policy := flag.String("policy", "", "offload-policy override: "+
		strings.Join(offload.Names(), ", ")+" (\"\" = the configuration's own)")
	scale := flag.Float64("scale", 1.0, "problem-size scale factor")
	compare := flag.Bool("compare", true, "also run the baseline and report speedup")
	list := flag.Bool("list", false, "list workloads and configurations")
	tracePath := flag.String("trace", "", "write offload-lifecycle events to this file (binary; decode with tomtrace)")
	traceSample := flag.Int("trace-sample", 1, "keep one trace event in N per event kind (1 = keep all)")
	metricsPath := flag.String("metrics", "", "write the metrics snapshot to this JSON file")
	interval := flag.Int64("interval", 0, "metrics sampling interval in cycles (0 = default)")
	cache := flag.Bool("cache", false, "persist and replay verified results under -cache-dir")
	cacheDir := flag.String("cache-dir", ".tomcache", "persistent result cache directory")
	mapStore := flag.Bool("mapping-store", false,
		"install the learned data mapping from the persistent registry when available (requires -cache)")
	flag.Parse()

	if *mapStore && !*cache {
		fatal(fmt.Errorf("-mapping-store requires -cache (the registry lives under -cache-dir/mappings)"))
	}
	if *tracePath == "-" {
		fatal(fmt.Errorf("-trace takes a file path, not -; decode the file with tomtrace"))
	}

	if *list {
		fmt.Println("workloads:")
		for _, w := range tom.Workloads() {
			fmt.Printf("  %-4s %s — %s\n", w.Abbr, w.Name, w.Desc)
		}
		fmt.Println("configurations:")
		for _, c := range core.AllConfigNames() {
			fmt.Printf("  %s\n", c)
		}
		fmt.Println("policies (-policy):")
		for _, n := range offload.Names() {
			p, err := offload.ByName(n)
			if err != nil {
				fatal(err)
			}
			if params := p.Params(); params != "" {
				fmt.Printf("  %s (%s)\n", n, params)
			} else {
				fmt.Printf("  %s\n", n)
			}
		}
		return
	}

	opts := tom.SessionOptions{Scale: *scale}
	if *cache {
		opts.CacheDir = *cacheDir
	}
	opts.Progress = func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	s := tom.NewSession(opts)

	var observer *obs.Observer
	var traceFile *os.File
	if *tracePath != "" || *metricsPath != "" {
		observer = obs.New()
		observer.SampleEvery = *interval
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fatal(err)
			}
			traceFile = f
			sink := obs.NewBinarySink(f)
			if *traceSample > 1 {
				observer.Trace = obs.NewSamplingSink(sink, *traceSample)
			} else {
				observer.Trace = sink
			}
		}
	}

	spec, err := s.SpecWithPolicy(*workload, core.ConfigName(*config), *policy)
	if err != nil {
		fatal(err)
	}
	if *mapStore {
		spec, err = s.WithStoredMapping(spec)
		if err != nil {
			fatal(err)
		}
	}
	res, _, err := s.Execute(spec, observer)
	if err != nil {
		fatal(err)
	}
	if traceFile != nil {
		// Flushing the chain also makes a sampling sink append its per-kind
		// trace_sampled summaries before the encoder drains.
		if err := obs.Flush(observer.Trace); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if err := traceFile.Close(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if ss, ok := observer.Trace.(*obs.SamplingSink); ok {
			fmt.Fprintf(os.Stderr, "trace: sampled 1/%d per kind, dropped %d events\n",
				*traceSample, ss.Dropped())
		}
	}
	if *metricsPath != "" {
		data, err := json.MarshalIndent(observer.Registry.Snapshot(), "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*metricsPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	st := &res.Stats
	fmt.Printf("workload       %s\nconfig         %s\n", res.Abbr, res.Config)
	if *policy != "" {
		fmt.Printf("policy         %s (override)\n", *policy)
	}
	fmt.Printf("cycles         %d\nIPC            %.2f\n", st.Cycles, st.IPC())
	fmt.Printf("thread instrs  %d (%.1f%% on stack SMs)\n", st.ThreadInstrs, st.OffloadedInstrFraction()*100)
	fmt.Printf("off-chip bytes %d (RX %d, TX %d, mem-mem %d)\n",
		st.OffChipBytes(), st.GPURXBytes, st.GPUTXBytes, st.CrossBytes)
	fmt.Printf("offloads       %d sent, %d acked, %d skipped (busy %d / full %d / cond %d / alu %d / nodest %d / destbound %d / split %d / vaultfull %d)\n",
		st.OffloadsSent, st.OffloadsAcked, st.OffloadsSkipped(),
		st.OffloadsSkippedBusy, st.OffloadsSkippedFull, st.OffloadsSkippedCond,
		st.OffloadsSkippedALU, st.OffloadsSkippedNoDest,
		st.OffloadsSkippedDestBound, st.OffloadsSkippedSplit, st.OffloadsSkippedVaultFull)
	for _, pc := range st.PCStats.PCs() {
		if g := st.PCStats[pc]; g.Decisions() > 0 {
			fmt.Printf("               pc %-5d gated %5.1f%% (%d/%d decisions, mean trips %.0f)\n",
				pc, g.GateRate()*100, g.Gated(), g.Decisions(), g.MeanTrips())
		}
	}
	fmt.Printf("caches         L1 %.1f%%, L2 %.1f%%, stack L1 %.1f%%\n",
		hitPct(st.L1Hits, st.L1Misses), hitPct(st.L2Hits, st.L2Misses), hitPct(st.StackL1Hits, st.StackL1Misses))
	fmt.Printf("DRAM           %d activations, %.1f%% row hits\n",
		st.DRAMActivations, hitPct(st.DRAMRowHits, st.DRAMActivations))
	fmt.Printf("energy         %.3f mJ (SMs %.3f, links %.3f, DRAM %.3f)\n",
		res.Energy.Total()*1e3, res.Energy.SMs*1e3, res.Energy.Links*1e3, res.Energy.DRAM*1e3)
	if st.LearnCycles > 0 {
		fmt.Printf("tmap learning  bit %d from %d instances in %d cycles; %d bytes re-mapped\n",
			st.LearnedBit, st.LearnInstances, st.LearnCycles, st.CopiedBytes)
	}
	if st.MappingSource == sim.MappingStored {
		fmt.Printf("tmap stored    bit %d installed from the registry (%d ranges); %d bytes copied, %d PCIe bytes saved\n",
			st.LearnedBit, len(st.MappedRanges), st.CopiedBytes, st.LearnPCIeSaved)
	}
	if *compare && res.Config != tom.Baseline {
		base, err := s.Run(*workload, tom.Baseline)
		if err != nil {
			fatal(fmt.Errorf("baseline: %w", err))
		}
		fmt.Printf("speedup        %.3fx over baseline (%d cycles)\n",
			st.IPC()/base.Stats.IPC(), base.Stats.Cycles)
	}
	if dir := s.CacheDir(); dir != "" {
		cs := s.CacheStats()
		fmt.Fprintf(os.Stderr, "cache: dir=%s hits=%d simulated=%d\n",
			dir, cs.DiskHits, cs.Simulated)
	}
	if *mapStore {
		ms := s.MappingStats()
		fmt.Fprintf(os.Stderr, "mapping: hits=%d misses=%d writes=%d saved_bytes=%d\n",
			ms.StoreHits, ms.StoreMisses, ms.StoreWrites, ms.SavedBytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tomsim:", err)
	os.Exit(1)
}

func hitPct(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return 100 * float64(h) / float64(h+m)
}
