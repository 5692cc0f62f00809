// Command tomx is the project's one command-line tool. Its first argument
// picks the mode:
//
//	tomx [flags]        regenerate the paper's figures and tables (exp.go)
//	tomx run [flags]    run one workload under one configuration (run.go)
//	tomx cc [flags]     the §3.1 offload-candidate pass over a kernel (cc.go)
//	tomx trace [flags]  decode and filter a binary lifecycle trace (trace.go)
//
// Any other first word is refused, as is a positional argument a mode does
// not take: the mode prints its usage and tomx exits with status 2 before
// anything is simulated. Other failures print "tomx: <error>" and exit 1.
//
// The experiment mode and run share the flags that pick the problem scale
// (-scale), the persistent result cache (-cache, -cache-dir; see
// docs/RUNCACHE.md) and the observed-run outputs: -trace writes the offload
// lifecycle (candidate → gate/send → spawn → ack → finish) in the compact
// binary encoding, every event stamped with its "ABBR/config" run label;
// -trace-sample N keeps one event in N per kind per run and ends each run's
// events with trace_sampled summaries of what was thinned; -metrics writes
// the registry snapshot (per-interval off-chip traffic, per-stack
// pending-offload occupancy, link utilization, queue depths) sampled every
// -interval cycles. docs/OBSERVABILITY.md has all three schemas. Observed
// runs always execute (only an execution produces time series); -cache
// persists and replays the plain ones.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	tom "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// synopsis is tomx's usage, printed when the first word names no mode and
// at the head of the experiment mode's flag list.
const synopsis = `usage: tomx [-exp id] [flags]       regenerate the paper's tables
       tomx run [flags]             one workload under one configuration
       tomx cc [-d] <kernel.s | ->  the offload-candidate pass (or: tomx cc -workload ABBR)
       tomx trace [flags] [file|-]  decode a binary lifecycle trace to JSON lines
`

// mode is one of tomx's modes: arguments after the mode word in, first
// error out.
type mode func(args []string, stdin io.Reader, stdout, stderr io.Writer) error

var modes = map[string]mode{"run": runMode, "cc": ccMode, "trace": traceMode}

func main() {
	os.Exit(tomx(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// tomx is the testable body: it dispatches on the first argument and
// returns the exit status.
func tomx(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	m := mode(expMode)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		var ok bool
		if m, ok = modes[args[0]]; !ok {
			fmt.Fprintf(stderr, "tomx: unknown mode %q\n%s", args[0], synopsis)
			return 2
		}
		args = args[1:]
	}
	err := m(args, stdin, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintln(stderr, "tomx:", err)
	return 1
}

// errUsage reports a command line a mode refused after printing its usage.
var errUsage = errors.New("usage")

// newFlagSet returns a mode's flag set, printing usage and defaults to
// stderr.
func newFlagSet(name, usage string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprint(stderr, usage)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args and refuses more than maxArgs positional arguments.
// Go's flag package stops at the first non-flag argument, so without the
// count a misplaced word would silently drop every flag after it.
func parse(fs *flag.FlagSet, args []string, maxArgs int) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // the flag package printed the error and the usage
	}
	if fs.NArg() > maxArgs {
		fmt.Fprintf(fs.Output(), "unexpected argument %q\n", fs.Arg(maxArgs))
		fs.Usage()
		return errUsage
	}
	return nil
}

// common holds the flags the experiment mode and run share.
type common struct {
	scale       float64
	cache       bool
	cacheDir    string
	trace       string
	traceSample int
	metrics     string
	interval    int64
}

func (c *common) register(fs *flag.FlagSet) {
	fs.Float64Var(&c.scale, "scale", 1.0, "problem-size scale factor")
	fs.BoolVar(&c.cache, "cache", false, "persist and replay verified results under -cache-dir")
	fs.StringVar(&c.cacheDir, "cache-dir", ".tomcache", "persistent result cache directory")
	fs.StringVar(&c.trace, "trace", "", "write offload-lifecycle events to this file (binary; decode with tomx trace)")
	fs.IntVar(&c.traceSample, "trace-sample", 1, "keep one trace event in N per event kind per run (1 = keep all)")
	fs.StringVar(&c.metrics, "metrics", "", "write the metrics snapshot to this JSON file")
	fs.Int64Var(&c.interval, "interval", 0, "metrics sampling interval in cycles (0 = default)")
}

// check refuses a bad scale or bad observation flags before anything is
// simulated.
func (c *common) check() error {
	if err := core.CheckScale(c.scale); err != nil {
		return fmt.Errorf("-%w", err)
	}
	if c.trace == "-" {
		return errors.New("-trace takes a file path, not -; decode the file with tomx trace")
	}
	if c.traceSample < 1 {
		return fmt.Errorf("-trace-sample %d: want a positive integer", c.traceSample)
	}
	return nil
}

// observed reports whether the runs must execute under observation.
func (c *common) observed() bool { return c.trace != "" || c.metrics != "" }

// session opens the session a mode runs through, with one progress line per
// run on stderr unless quiet.
func (c *common) session(stderr io.Writer, quiet bool) *tom.Session {
	opts := tom.SessionOptions{Scale: c.scale}
	if c.cache {
		opts.CacheDir = c.cacheDir
	}
	if !quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	return tom.NewSession(opts)
}

// observe calls fn with the -trace file's encoder (nil without -trace),
// flushes and closes the file whether or not fn failed, and writes the
// metrics fn returns to the -metrics file.
func (c *common) observe(fn func(trace obs.EventSink) (metrics any, err error)) error {
	var metrics any
	var err error
	if c.trace == "" {
		metrics, err = fn(nil)
	} else {
		f, createErr := os.Create(c.trace)
		if createErr != nil {
			return createErr
		}
		sink := obs.NewBinarySink(f)
		metrics, err = fn(sink)
		err = errors.Join(err, sink.Flush(), f.Close())
	}
	if err != nil || c.metrics == "" {
		return err
	}
	data, err := json.MarshalIndent(metrics, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(c.metrics, append(data, '\n'), 0o644)
}

// summarize prints the machine-parseable cache line the CI replay jobs grep
// when the persistent cache is on.
func summarize(stderr io.Writer, s *tom.Session) {
	if dir := s.CacheDir(); dir != "" {
		cs := s.CacheStats()
		fmt.Fprintf(stderr, "cache: dir=%s hits=%d simulated=%d\n",
			dir, cs.DiskHits, cs.Simulated)
	}
}
