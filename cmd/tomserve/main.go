// Command tomserve is the long-running sweep service: the Session cache
// architecture behind an HTTP/JSON API, so a figure pipeline (or several at
// once) can request run batches and pay simulation cost only for specs no
// prior request has produced.
//
//	tomserve -addr :8080 -cache-dir .tomcache
//
// Endpoints:
//
//	POST /v1/runs                 run a batch; per-run cache source + per-batch summary
//	GET  /v1/runs/{digest}/trace  re-execute one submitted run, streaming its trace
//	GET  /metrics                 server counters (obs registry snapshot, JSON)
//	GET  /healthz                 liveness
//
// A batch is {"runs":[{"workload":"LIB","config":"ctrl-tmap","scale":0.5}],
// "timeout_ms":0}; a configuration names its offload scheme, a run without a
// scale runs at -scale, and one Session serves runs of every scale. Results
// align with the request; each slot carries the spec digest, the satisfying
// cache layer (memo/disk/simulated), and the verified result or an error.
// The response's "cache" object is the HTTP counterpart of tomx run's
// "cache: hits=... simulated=..." line.
//
// Concurrency: cache hits are answered on the request goroutine; misses and
// trace re-executions run on one shared scheduler that takes a slot per item,
// so at most -workers simulations run at once across all requests and
// concurrent batches take turns. -queue bounds admitted requests, beyond
// which the server answers 429 + Retry-After immediately; a body over 1 MiB,
// more than 1024 runs or a scale over 8 is refused with a 4xx. -timeout caps
// each batch (runs that never started report the deadline error; running
// simulations always finish and land in the caches). On SIGINT/SIGTERM the
// server stops accepting work, drains in-flight batches, and exits. See
// docs/RUNCACHE.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
)

func main() {
	addr, opts, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		fmt.Fprintf(os.Stderr, "tomserve: %v\n", err)
		os.Exit(2)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	opts.logf = logf
	if opts.cacheDir != "" {
		// Startup GC: drop what this build can never replay (foreign
		// fingerprints, torn or abandoned writes) from the run cache, before
		// the directory grows.
		if n, err := core.NewDiskCache(opts.cacheDir, "").Sweep(); err != nil {
			logf("tomserve: cache sweep: %v", err)
		} else if n > 0 {
			logf("tomserve: cache sweep removed %d dead records", n)
		}
	}

	srv := &http.Server{Addr: addr, Handler: newServer(opts).handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	logf("tomserve: listening on %s (cache=%q workers=%d queue=%d)",
		addr, opts.cacheDir, opts.workers, opts.queue)

	select {
	case err := <-done:
		logf("tomserve: %v", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting connections, let in-flight batches run
	// to completion (their simulations land in the caches), then exit. The
	// grace period is generous — a second signal kills the process anyway.
	stop()
	logf("tomserve: draining in-flight requests")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		logf("tomserve: drain: %v", err)
		os.Exit(1)
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logf("tomserve: %v", err)
		os.Exit(1)
	}
	logf("tomserve: drained, bye")
}

// parseFlags reads the command line into the listen address and the
// server's options. A default scale that is not a positive finite number up
// to maxScale is refused here, before anything listens: every run that names
// no scale would otherwise fail, or run at a scale the request bounds refuse.
func parseFlags(args []string) (addr string, opts options, err error) {
	fs := flag.NewFlagSet("tomserve", flag.ContinueOnError)
	fs.StringVar(&addr, "addr", "127.0.0.1:8080", "listen address")
	fs.Float64Var(&opts.scale, "scale", 1.0, "default problem-size scale factor (per-run override allowed)")
	fs.StringVar(&opts.cacheDir, "cache-dir", ".tomcache", "persistent result cache directory (\"\" = memo only)")
	fs.IntVar(&opts.workers, "workers", 0, "simulation concurrency bound (0 = GOMAXPROCS)")
	fs.IntVar(&opts.queue, "queue", 16, "admission bound: queued+running requests before 429")
	fs.DurationVar(&opts.timeout, "timeout", 0, "default per-batch deadline (0 = none)")
	if err := fs.Parse(args); err != nil {
		return "", options{}, err
	}
	if err := core.CheckScale(opts.scale); err != nil {
		return "", options{}, fmt.Errorf("-scale: %w", err)
	}
	if opts.scale > maxScale {
		return "", options{}, fmt.Errorf("-scale %v: the limit is %v", opts.scale, maxScale)
	}
	return addr, opts, nil
}
