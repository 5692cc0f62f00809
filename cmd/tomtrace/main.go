// Command tomtrace decodes and filters the binary offload-lifecycle traces
// that tomsim, tomx and tomserve write (docs/OBSERVABILITY.md), printing
// them as JSON lines, one event per line:
//
//	tomtrace trace.bin                         # decode to JSONL on stdout
//	tomtrace -kind send,ack -stack 2 trace.bin # lifecycle of one stack
//	tomtrace -run LIB/ctrl-tmap fig9.trace     # one run out of a shared trace
//	curl -s localhost:8080/v1/runs/<digest>/trace | tomtrace -  # stdin too
//
// Filters conjoin: an event must match every one given. -stack matches the
// event's stack id; use -stack -1 for events that fired before a
// destination stack was known (gate events with reason cond or nodest).
// Decoding is lossless and deterministic: two decodes of one trace are
// byte-identical, and so are the traces of two runs of the same spec.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tomtrace:", err)
		os.Exit(1)
	}
}

// run is the testable body: flags and streams in, first error out (the
// named return lets the deferred output close report its error).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("tomtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default stdout)")
	kinds := fs.String("kind", "", "keep only these comma-separated event kinds")
	runLabel := fs.String("run", "", "keep only events with this run label (\"ABBR/config\")")
	stack := fs.String("stack", "", "keep only events on this stack id (-1 = no destination)")
	quiet := fs.Bool("q", false, "suppress the event-count summary on stderr")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: tomtrace [flags] [trace-file|-]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file (got %d)", fs.NArg())
	}

	filter := &obs.Filter{Run: *runLabel}
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			if k = strings.TrimSpace(k); k != "" {
				filter.Kinds = append(filter.Kinds, k)
			}
		}
	}
	if *stack != "" {
		id, err := strconv.Atoi(*stack)
		if err != nil {
			return fmt.Errorf("-stack: %w", err)
		}
		filter.Stack = &id
	}

	in := stdin
	name := "-"
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		name = fs.Arg(0)
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}

	read, written, err := obs.Convert(in, w, filter)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !*quiet {
		fmt.Fprintf(stderr, "tomtrace: %d events read, %d written\n", read, written)
	}
	return nil
}
