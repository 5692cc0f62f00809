package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Scheduler is a bounded executor for simulation batches. Many submitters
// can share one (cmd/tomserve runs every HTTP batch through one) and the
// bound holds across all of them: a slot is held per item, and a channel
// serves its blocked senders in arrival order, so concurrent batches take
// turns item by item instead of one waiting for another to drain.
type Scheduler struct {
	workers int
	slots   chan struct{}
	waited  atomic.Int64 // ns that items spent blocked on a slot
}

// NewScheduler bounds concurrently running items to workers (<= 0: GOMAXPROCS).
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Scheduler{workers: workers, slots: make(chan struct{}, workers)}
}

// SlotWait returns the total time items have spent blocked on a slot so far.
func (sc *Scheduler) SlotWait() time.Duration { return time.Duration(sc.waited.Load()) }

// acquire takes one slot, or returns ctx's error holding none.
func (sc *Scheduler) acquire(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case sc.slots <- struct{}{}:
		return nil
	default:
	}
	defer func(start time.Time) { sc.waited.Add(int64(time.Since(start))) }(time.Now())
	select {
	case sc.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers() goroutines
// and returns one error slot per index (nil on success). Every index runs at
// most once. When ctx is cancelled, items already running finish (a
// simulation cannot be interrupted) and every index that never started
// carries ctx.Err(). Safe for concurrent use: calls contend for the slots.
//
// [0, n) is cut into one contiguous block per goroutine (the first n%workers
// one longer), each with a claim counter. A goroutine drains its own block,
// then helps on the others: none idles while an index is unclaimed, and they
// start n/workers apart. Batches list a workload's cells side by side, and
// two started on neighbours sit in their slots waiting on each other's
// instance and reference builds (batch_cold_s +20 %).
func (sc *Scheduler) ForEach(ctx context.Context, n int, fn func(int) error) []error {
	errs := make([]error, n)
	workers := min(sc.workers, n)
	start := func(b int) int { return b*(n/workers) + min(b, n%workers) }
	claimed := make([]atomic.Int64, workers)
	claim := func(b int) (int, bool) { // the next unclaimed index of block b
		i := start(b) + int(claimed[b].Add(1)) - 1
		return i, i < start(b+1)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := w; b < w+workers; b++ {
				for i, ok := claim(b % workers); ok; i, ok = claim(b % workers) {
					if errs[i] = sc.acquire(ctx); errs[i] == nil {
						errs[i] = fn(i)
						<-sc.slots
					}
				}
			}
		}()
	}
	wg.Wait()
	return errs
}
