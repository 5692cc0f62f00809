package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSchedulerRunsEveryIndexOnce: every index in [0, n) executes exactly
// once, across partition sizes that exercise uneven splits and more items
// than workers.
func TestSchedulerRunsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 1}, {1, 7}, {4, 3}, {4, 4}, {4, 5}, {3, 100}, {8, 1000},
	} {
		sc := NewScheduler(tc.workers)
		counts := make([]atomic.Int32, tc.n)
		errs := sc.ForEach(context.Background(), tc.n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if len(errs) != tc.n {
			t.Fatalf("w=%d n=%d: %d error slots", tc.workers, tc.n, len(errs))
		}
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Errorf("w=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, got)
			}
			if errs[i] != nil {
				t.Errorf("w=%d n=%d: index %d unexpected error %v", tc.workers, tc.n, i, errs[i])
			}
		}
	}
}

// TestSchedulerErrorsLandAtTheirIndex: a failure is reported in the failing
// index's slot and nowhere else.
func TestSchedulerErrorsLandAtTheirIndex(t *testing.T) {
	sc := NewScheduler(4)
	boom := errors.New("boom")
	errs := sc.ForEach(context.Background(), 20, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("item %d: %w", i, boom)
		}
		return nil
	})
	for i, err := range errs {
		if i%3 == 0 {
			if !errors.Is(err, boom) {
				t.Errorf("index %d: want boom, got %v", i, err)
			}
		} else if err != nil {
			t.Errorf("index %d: unexpected error %v", i, err)
		}
	}
}

// TestSchedulerNoIdleWorker: a block is where a worker starts, not its share.
// Item 0 blocks until every other item has run; with two workers the other
// one must therefore run all of them, the rest of the first one's block
// included. A pool that hands each worker a fixed share deadlocks here; the
// watchdog converts that into a failure.
func TestSchedulerNoIdleWorker(t *testing.T) {
	const n = 9
	sc := NewScheduler(2)
	var others sync.WaitGroup
	others.Add(n - 1)
	done := make(chan []error, 1)
	go func() {
		done <- sc.ForEach(context.Background(), n, func(i int) error {
			if i == 0 {
				others.Wait()
			} else {
				others.Done()
			}
			return nil
		})
	}()
	select {
	case errs := <-done:
		for i, err := range errs {
			if err != nil {
				t.Errorf("index %d: %v", i, err)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("ForEach deadlocked: a worker idled while indices were unclaimed")
	}
}

// TestSchedulerStartsWorkersApart: the goroutines of a ForEach begin on the
// first index of a block each, n/workers apart, so that they do not begin on
// neighbouring cells of one workload. The first call of each blocks until
// all of them have one, so the first `workers` calls are one per goroutine.
func TestSchedulerStartsWorkersApart(t *testing.T) {
	for _, tc := range []struct {
		workers, n int
		want       []int
	}{
		{2, 18, []int{0, 9}}, {3, 14, []int{0, 5, 10}}, {4, 4, []int{0, 1, 2, 3}}, {4, 2, []int{0, 1}},
	} {
		var mu sync.Mutex
		var first []int
		var all sync.WaitGroup
		all.Add(len(tc.want))
		NewScheduler(tc.workers).ForEach(context.Background(), tc.n, func(i int) error {
			mu.Lock()
			mine := len(first) < len(tc.want)
			if mine {
				first = append(first, i)
			}
			mu.Unlock()
			if mine {
				all.Done()
				all.Wait()
			}
			return nil
		})
		sort.Ints(first)
		if !reflect.DeepEqual(first, tc.want) {
			t.Errorf("workers=%d n=%d: the goroutines began on %v, want %v", tc.workers, tc.n, first, tc.want)
		}
	}
}

// TestSchedulerBatchesInterleave: a slot is held per item, not per batch.
// On a one-slot scheduler batch X runs its items one test-controlled step at
// a time; batch Y, submitted while X's first item holds the slot, must get
// its only item in before X's last (a scheduler whose workers keep their slot
// until their batch drains runs it after). Nothing reports that a goroutine
// has parked on the slot channel, so until Y has run the test pauses before
// each step to let Y's worker get there; Y has eight chances.
func TestSchedulerBatchesInterleave(t *testing.T) {
	const nx = 8
	sc := NewScheduler(1)
	started := make(chan int) // X reports each item as it starts
	step := make(chan struct{})
	yRan := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sc.ForEach(context.Background(), nx, func(i int) error {
			started <- i
			<-step
			return nil
		})
	}()
	submitY := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.ForEach(context.Background(), 1, func(int) error { close(yRan); return nil })
		}()
	}
	xStarted, yAfter := 0, -1
	for xStarted < nx || yAfter < 0 {
		select {
		case <-started:
			if xStarted++; xStarted == 1 {
				submitY() // X's first item holds the only slot
			}
			if yAfter < 0 {
				time.Sleep(time.Millisecond)
			}
			step <- struct{}{}
		case <-yRan:
			yRan, yAfter = nil, xStarted
		}
	}
	wg.Wait()
	if yAfter >= nx {
		t.Fatalf("batch Y's item ran after all %d of batch X's had started: the batches did not interleave", nx)
	}
}

// TestSchedulerCancellation: after the context is cancelled, items not yet
// started carry ctx.Err() and fn is never invoked for them.
func TestSchedulerCancellation(t *testing.T) {
	sc := NewScheduler(2)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 50
	var started atomic.Int32
	release := make(chan struct{})
	errs := sc.ForEach(ctx, n, func(i int) error {
		if started.Add(1) == 2 {
			cancel()
			close(release)
		} else {
			<-release // first two items hold both workers until cancel
		}
		return nil
	})
	ran := int(started.Load())
	if ran >= n {
		t.Fatalf("all %d items ran despite cancellation", n)
	}
	cancelled := 0
	for i, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		} else if err != nil {
			t.Errorf("index %d: unexpected error %v", i, err)
		}
	}
	if got := n - ran; cancelled != got {
		t.Errorf("%d slots carry ctx.Err(), want %d (n=%d ran=%d)", cancelled, got, n, ran)
	}
}

// TestSchedulerSharedBoundAcrossBatches: two concurrent ForEach calls on one
// scheduler never exceed the scheduler's slot count in simultaneously
// running items.
func TestSchedulerSharedBoundAcrossBatches(t *testing.T) {
	const workers = 3
	sc := NewScheduler(workers)
	var cur, peak atomic.Int32
	run := func(n int) {
		sc.ForEach(context.Background(), n, func(int) error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	var wg sync.WaitGroup
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() { defer wg.Done(); run(25) }()
	}
	wg.Wait()
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds the %d-slot bound", p, workers)
	}
}
