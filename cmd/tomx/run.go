package main

// run executes one workload under one system configuration and prints the
// measured statistics:
//
//	tomx run -workload LIB -config ctrl-tmap -scale 1.0
//	tomx run -workload LIB -policy coda                 # override the offload policy
//	tomx run -workload LIB -cache                       # replay from .tomcache/
//	tomx run -workload LIB -trace out.trace -metrics out.json
//	tomx run -workload LIB -trace out.trace -trace-sample 64
//	tomx run -workload LIB -cache -mapping-store        # install a stored data mapping
//	tomx run -list
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

import (
	"errors"
	"fmt"
	"io"
	"strings"

	tom "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/offload"
	"repro/internal/sim"
)

func runMode(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("run", "usage: tomx run [flags]\n", stderr)
	var c common
	c.register(fs)
	workload := fs.String("workload", "LIB", "workload abbreviation (see -list)")
	config := fs.String("config", string(tom.TOM), "system configuration name")
	policy := fs.String("policy", "", "offload-policy override: "+
		strings.Join(offload.Names(), ", ")+" (\"\" = the configuration's own)")
	compare := fs.Bool("compare", true, "also run the baseline and report speedup")
	list := fs.Bool("list", false, "list workloads and configurations")
	mapStore := fs.Bool("mapping-store", false,
		"install the learned data mapping from the persistent registry when available (requires -cache)")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if *mapStore && !c.cache {
		return errors.New("-mapping-store requires -cache (the registry lives under -cache-dir/mappings)")
	}
	if err := c.check(); err != nil {
		return err
	}
	if *list {
		return printList(stdout)
	}

	s := c.session(stderr, false)
	spec, err := s.Spec(*workload, core.ConfigName(*config))
	if err == nil {
		spec, err = spec.WithPolicy(*policy)
	}
	if err != nil {
		return err
	}
	if *mapStore {
		if spec, err = s.WithStoredMapping(spec); err != nil {
			return err
		}
	}
	var res *core.RunResult
	if c.observed() {
		err = c.observe(func(trace obs.EventSink) (any, error) {
			r, snap, err := s.Observe(spec, trace, c.traceSample, c.interval)
			res = r
			return snap, err
		})
	} else {
		res, _, err = s.Execute(spec)
	}
	if err != nil {
		return err
	}

	st := &res.Stats
	fmt.Fprintf(stdout, "workload       %s\nconfig         %s\n", res.Abbr, res.Config)
	if *policy != "" {
		fmt.Fprintf(stdout, "policy         %s (override)\n", *policy)
	}
	fmt.Fprintf(stdout, "cycles         %d\nIPC            %.2f\n", st.Cycles, st.IPC())
	fmt.Fprintf(stdout, "thread instrs  %d (%.1f%% on stack SMs)\n", st.ThreadInstrs, st.OffloadedInstrFraction()*100)
	fmt.Fprintf(stdout, "off-chip bytes %d (RX %d, TX %d, mem-mem %d)\n",
		st.OffChipBytes(), st.GPURXBytes, st.GPUTXBytes, st.CrossBytes)
	fmt.Fprintf(stdout, "offloads       %d sent, %d acked, %d skipped (busy %d / full %d / cond %d / alu %d / nodest %d / destbound %d / split %d / vaultfull %d)\n",
		st.OffloadsSent, st.OffloadsAcked, st.OffloadsSkipped(),
		st.OffloadsSkippedBusy, st.OffloadsSkippedFull, st.OffloadsSkippedCond,
		st.OffloadsSkippedALU, st.OffloadsSkippedNoDest,
		st.OffloadsSkippedDestBound, st.OffloadsSkippedSplit, st.OffloadsSkippedVaultFull)
	for _, pc := range st.PCStats.PCs() {
		if g := st.PCStats[pc]; g.Decisions() > 0 {
			fmt.Fprintf(stdout, "               pc %-5d gated %5.1f%% (%d/%d decisions, mean trips %.0f)\n",
				pc, g.GateRate()*100, g.Gated(), g.Decisions(), g.MeanTrips())
		}
	}
	fmt.Fprintf(stdout, "caches         L1 %.1f%%, L2 %.1f%%, stack L1 %.1f%%\n",
		hitPct(st.L1Hits, st.L1Misses), hitPct(st.L2Hits, st.L2Misses), hitPct(st.StackL1Hits, st.StackL1Misses))
	fmt.Fprintf(stdout, "DRAM           %d activations, %.1f%% row hits\n",
		st.DRAMActivations, hitPct(st.DRAMRowHits, st.DRAMActivations))
	fmt.Fprintf(stdout, "energy         %.3f mJ (SMs %.3f, links %.3f, DRAM %.3f)\n",
		res.Energy.Total()*1e3, res.Energy.SMs*1e3, res.Energy.Links*1e3, res.Energy.DRAM*1e3)
	if st.LearnCycles > 0 {
		fmt.Fprintf(stdout, "tmap learning  bit %d from %d instances in %d cycles; %d bytes re-mapped\n",
			st.LearnedBit, st.LearnInstances, st.LearnCycles, st.CopiedBytes)
	}
	if st.MappingSource == sim.MappingStored {
		fmt.Fprintf(stdout, "tmap stored    bit %d installed from the registry (%d ranges); %d bytes copied, %d PCIe bytes saved\n",
			st.LearnedBit, len(st.MappedRanges), st.CopiedBytes, st.LearnPCIeSaved)
	}
	if *compare && res.Config != tom.Baseline {
		base, err := s.Run(*workload, tom.Baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		fmt.Fprintf(stdout, "speedup        %.3fx over baseline (%d cycles)\n",
			st.IPC()/base.Stats.IPC(), base.Stats.Cycles)
	}
	summarize(stderr, s, *mapStore)
	return nil
}

// printList enumerates the workloads, configurations and offload policies.
func printList(stdout io.Writer) error {
	fmt.Fprintln(stdout, "workloads:")
	for _, w := range tom.Workloads() {
		fmt.Fprintf(stdout, "  %-4s %s — %s\n", w.Abbr, w.Name, w.Desc)
	}
	fmt.Fprintln(stdout, "configurations:")
	for _, c := range core.AllConfigNames() {
		fmt.Fprintf(stdout, "  %s\n", c)
	}
	fmt.Fprintln(stdout, "policies (-policy):")
	for _, n := range offload.Names() {
		p, err := offload.ByName(n)
		if err != nil {
			return err
		}
		if params := p.Params(); params != "" {
			fmt.Fprintf(stdout, "  %s (%s)\n", n, params)
		} else {
			fmt.Fprintf(stdout, "  %s\n", n)
		}
	}
	return nil
}

func hitPct(h, m uint64) float64 {
	if h+m == 0 {
		return 0
	}
	return 100 * float64(h) / float64(h+m)
}
