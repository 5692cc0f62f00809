package main

// trace decodes and filters the binary offload-lifecycle traces that tomx
// and tomserve write (docs/OBSERVABILITY.md), printing them as JSON lines,
// one event per line:
//
//	tomx trace trace.bin                          # decode to JSONL on stdout
//	tomx trace -kind send,ack -stack 2 trace.bin  # lifecycle of one stack
//	tomx trace -run LIB/ctrl-tmap fig9.trace      # one run out of a shared trace
//	curl -s localhost:8080/v1/runs/<digest>/trace | tomx trace -  # stdin too
//
// Filters conjoin: an event must match every one given. -stack matches the
// event's stack id; use -stack -1 for events that fired before a
// destination stack was known (gate events with reason cond or nodest).
// Decoding is lossless and deterministic: two decodes of one trace are
// byte-identical, and so are the traces of two runs of the same spec.

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs"
)

func traceMode(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := newFlagSet("trace", "usage: tomx trace [flags] [trace-file|-]\n", stderr)
	kinds := fs.String("kind", "", "keep only these comma-separated event kinds")
	runLabel := fs.String("run", "", "keep only events with this run label (\"ABBR/config\")")
	stack := fs.String("stack", "", "keep only events on this stack id (-1 = no destination)")
	quiet := fs.Bool("q", false, "suppress the event-count summary on stderr")
	if err := parse(fs, args, 1); err != nil {
		return err
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

	in, name := stdin, "-"
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		name = fs.Arg(0)
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	read, written, err := obs.Convert(in, stdout, filter)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if !*quiet {
		fmt.Fprintf(stderr, "tomx trace: %d events read, %d written\n", read, written)
	}
	return nil
}
