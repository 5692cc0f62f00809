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
// A batch is {"runs":[{"workload":"LIB","config":"ctrl-tmap","policy":"",
// "scale":0.5}],"timeout_ms":0}; a run without a scale runs at -scale, and one
// Session serves runs of every scale. Results align with the request; each slot
// carries the spec digest, the satisfying cache layer (memo/disk/simulated),
// and the verified result or an error. The response's "cache" object is the
// HTTP counterpart of tomx run's "cache: hits=... simulated=..." line.
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
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	scale := flag.Float64("scale", 1.0, "default problem-size scale factor (per-run override allowed)")
	cacheDir := flag.String("cache-dir", ".tomcache", "persistent result cache directory (\"\" = memo only)")
	workers := flag.Int("workers", 0, "simulation concurrency bound (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 16, "admission bound: queued+running requests before 429")
	timeout := flag.Duration("timeout", 0, "default per-batch deadline (0 = none)")
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *cacheDir != "" {
		// Startup GC: drop what this build can never replay (foreign
		// fingerprints, torn or abandoned writes) from the run cache and the
		// mapping store under it, before the directory grows.
		if n, err := core.NewDiskCache(*cacheDir, "").Sweep(); err != nil {
			logf("tomserve: cache sweep: %v", err)
		} else if n > 0 {
			logf("tomserve: cache sweep removed %d dead records", n)
		}
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: newServer(options{
			scale:    *scale,
			cacheDir: *cacheDir,
			workers:  *workers,
			queue:    *queue,
			timeout:  *timeout,
			logf:     logf,
		}).handler(),
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe() }()
	logf("tomserve: listening on %s (cache=%q workers=%d queue=%d)",
		*addr, *cacheDir, *workers, *queue)

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
