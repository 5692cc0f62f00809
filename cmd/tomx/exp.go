package main

// The experiment mode regenerates the paper's figures and tables:
//
//	tomx                                  # all experiments at default scale
//	tomx -exp fig8 -scale 0.5             # one experiment
//	tomx -exp fig8 -cache                 # reuse .tomcache/ results across runs
//	tomx -exp fig9 -metrics fig9.json     # plus the time-resolved traffic export
//	tomx -exp fig9 -trace fig9.trace -trace-sample 16
//	tomx -markdown                        # emit EXPERIMENTS.md-style markdown
//
// -metrics and -trace work with any simulated experiment (-exp fig2..fig13,
// xstack, coherence, policies): after the table, the experiment's
// configurations (plus the baseline) rerun with observers attached, one
// metrics snapshot per "ABBR/config" run, and every run's lifecycle events
// go to one trace file.
//
// With -cache, a second identical invocation replays every run from disk
// and prints byte-identical tables.
//
// An experiment's runs execute in parallel: without -q, the progress lines
// on stderr arrive in completion order.
//
// -exp fig3 sets the learned transparent mapping beside the oracle's: its
// preset-mapping row is ctrl-tmap with the bit its own ctrl-tmap run learned
// in force from cycle 0, so learning costs nothing there. Nothing but the
// run cache outlives the invocation.

import (
	"errors"
	"fmt"
	"io"
	"strings"

	tom "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

func expMode(args []string, _ io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("tomx", synopsis+"\nflags of the experiment mode:\n", stderr)
	var c common
	c.register(fs)
	exp := fs.String("exp", "all", "experiment id ("+strings.Join(tom.ExperimentIDs(), ", ")+") or 'all'")
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	quiet := fs.Bool("q", false, "suppress per-run progress")
	if err := parse(fs, args, 0); err != nil {
		return err
	}
	if err := c.check(); err != nil {
		return err
	}
	if c.observed() {
		// Refuse now what the timeline would refuse: it runs after the
		// experiment itself, which may simulate for minutes.
		if *exp == "all" {
			return errors.New("-metrics/-trace export one experiment's timeline; pick it with -exp")
		}
		if _, err := core.TimelineConfigs(*exp); err != nil {
			return err
		}
	}

	s := c.session(stderr, *quiet)
	var tables []*tom.Table
	if *exp == "all" {
		ts, err := s.AllExperiments()
		if err != nil {
			return err
		}
		tables = ts
	} else {
		t, err := s.Experiment(*exp)
		if err != nil {
			return err
		}
		tables = []*tom.Table{t}
	}
	for _, t := range tables {
		if *markdown {
			fmt.Fprintln(stdout, t.Markdown())
		} else {
			fmt.Fprintln(stdout, t)
		}
	}

	if c.observed() {
		// The totals above came from memoized runs; the timeline reruns the
		// same configurations with observers to add the time axis (and,
		// with -trace, the labeled lifecycle stream).
		var snaps map[string]*obs.Snapshot
		err := c.observe(func(trace obs.EventSink) (_ any, err error) {
			snaps, err = s.Timeline(*exp, c.interval, trace, c.traceSample)
			return snaps, err
		})
		if err != nil {
			return err
		}
		if c.trace != "" {
			fmt.Fprintf(stderr, "wrote the lifecycle trace for %d runs to %s\n", len(snaps), c.trace)
		}
		if c.metrics != "" {
			fmt.Fprintf(stderr, "wrote per-interval traffic for %d runs to %s\n", len(snaps), c.metrics)
		}
	}

	summarize(stderr, s)
	return nil
}
