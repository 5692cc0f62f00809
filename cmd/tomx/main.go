// Command tomx regenerates the paper's figures and tables.
//
//	tomx                                  # all experiments at default scale
//	tomx -exp fig8 -scale 0.5             # one experiment
//	tomx -exp fig8 -cache                 # reuse .tomcache/ results across runs
//	tomx -exp fig9 -metrics fig9.json     # plus the time-resolved traffic export
//	tomx -exp fig9 -trace fig9.trace -trace-sample 16
//	tomx -exp mapstore -cache             # TOM with the persistent mapping registry
//	tomx -markdown                        # emit EXPERIMENTS.md-style markdown
//
// -metrics and -trace work with any simulated experiment (-exp fig2..fig13,
// xstack, coherence, policies, mapstore): after the table, the experiment's
// configurations (plus the baseline) rerun with observers attached and the
// per-interval metric snapshots are exported. -trace captures every run's
// offload lifecycle into one stream, each event stamped with its
// "ABBR/config" run label, in the compact binary encoding (decode and filter
// with cmd/tomtrace); -trace-sample N thins to one event in N per kind per
// run, with trace_sampled summaries saying what was dropped.
//
// With -cache, verified results persist under -cache-dir keyed by run-spec
// digest and build fingerprint (see docs/RUNCACHE.md): a second identical
// invocation replays every run from disk and prints byte-identical tables.
//
// An experiment's runs execute in parallel: without -q, the progress lines
// on stderr arrive in completion order.
//
// -exp mapstore exercises the persistent mapping registry: with -cache, the
// first invocation learns each workload's transparent mapping and seeds
// -cache-dir/mappings/; a second invocation installs every stored bit
// before cycle 0 ("stored" row = 1) with zero learning-phase PCIe traffic,
// and the "mapping:" summary line reports store hits/misses/writes and the
// PCIe bytes saved.
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
)

func main() {
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(tom.ExperimentIDs(), ", ")+") or 'all'")
	scale := flag.Float64("scale", 1.0, "problem-size scale factor")
	markdown := flag.Bool("markdown", false, "emit markdown tables")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	metrics := flag.String("metrics", "", "with a simulated -exp (e.g. fig9): write per-interval off-chip traffic snapshots to this JSON file")
	trace := flag.String("trace", "", "with a simulated -exp (e.g. fig9): write all runs' offload-lifecycle events to this file (binary; decode with tomtrace)")
	traceSample := flag.Int("trace-sample", 1, "keep one trace event in N per event kind per run (1 = keep all)")
	interval := flag.Int64("interval", 0, "metrics sampling interval in cycles (0 = default)")
	cache := flag.Bool("cache", false, "persist and replay verified results under -cache-dir")
	cacheDir := flag.String("cache-dir", ".tomcache", "persistent result cache directory")
	flag.Parse()

	if *metrics != "" || *trace != "" {
		// Refuse now what the timeline would refuse: it runs after the
		// experiment itself, which may simulate for minutes.
		if *trace == "-" {
			fatal(fmt.Errorf("-trace takes a file path, not -; decode the file with tomtrace"))
		}
		if *exp == "all" {
			fatal(fmt.Errorf("-metrics/-trace export one experiment's timeline; pick it with -exp"))
		}
		if _, err := core.TimelineConfigs(*exp); err != nil {
			fatal(err)
		}
	}

	opts := tom.SessionOptions{Scale: *scale}
	if *cache {
		opts.CacheDir = *cacheDir
	}
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	s := tom.NewSession(opts)

	var tables []*tom.Table
	if *exp == "all" {
		ts, err := s.AllExperiments()
		if err != nil {
			fatal(err)
		}
		tables = ts
	} else {
		t, err := s.Experiment(*exp)
		if err != nil {
			fatal(err)
		}
		tables = []*tom.Table{t}
	}
	for _, t := range tables {
		if *markdown {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t)
		}
	}

	if *metrics != "" || *trace != "" {
		// The totals above came from memoized runs; the timeline reruns the
		// same configurations with observers to add the time axis (and,
		// with -trace, the labeled lifecycle stream).
		var sink obs.EventSink
		var traceFile *os.File
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			traceFile = f
			sink = obs.NewBinarySink(f)
		}
		snaps, err := s.Timeline(*exp, *interval, sink, *traceSample)
		if err != nil {
			fatal(err)
		}
		if traceFile != nil {
			if err := obs.Flush(sink); err != nil {
				fatal(fmt.Errorf("trace: %w", err))
			}
			if err := traceFile.Close(); err != nil {
				fatal(fmt.Errorf("trace: %w", err))
			}
			fmt.Fprintf(os.Stderr, "wrote the lifecycle trace for %d runs to %s\n", len(snaps), *trace)
		}
		if *metrics != "" {
			data, err := json.MarshalIndent(snaps, "", " ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*metrics, append(data, '\n'), 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote per-interval traffic for %d runs to %s\n", len(snaps), *metrics)
		}
	}

	if dir := s.CacheDir(); dir != "" {
		// Machine-parseable summary: the CI cold/warm replay job asserts
		// simulated=0 on the second pass.
		cs := s.CacheStats()
		fmt.Fprintf(os.Stderr, "cache: dir=%s hits=%d simulated=%d\n",
			dir, cs.DiskHits, cs.Simulated)
	}
	if *exp == "mapstore" {
		// Machine-parseable summary: the CI mapping-store replay job asserts
		// hits>0 and saved_bytes>0 on the second pass.
		ms := s.MappingStats()
		fmt.Fprintf(os.Stderr, "mapping: hits=%d misses=%d writes=%d saved_bytes=%d\n",
			ms.StoreHits, ms.StoreMisses, ms.StoreWrites, ms.SavedBytes)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tomx:", err)
	os.Exit(1)
}
