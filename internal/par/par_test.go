package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// startLog records which task indices started.
type startLog struct {
	mu      sync.Mutex
	started map[int]bool
}

func (l *startLog) add(i int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started == nil {
		l.started = map[int]bool{}
	}
	l.started[i] = true
}

func (l *startLog) max() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := -1
	for i := range l.started {
		m = max(m, i)
	}
	return m
}

func TestOrderedSucceeds(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 64} {
		var mu sync.Mutex
		done := make([]bool, 20)
		i, err := Ordered(context.Background(), len(done), workers, func(_ context.Context, w, i int) error {
			if w < 0 || w >= max(1, min(workers, len(done))) {
				t.Errorf("workers=%d: task %d ran on goroutine %d", workers, i, w)
			}
			mu.Lock()
			done[i] = true
			mu.Unlock()
			return nil
		})
		if i != len(done) || err != nil {
			t.Fatalf("workers=%d: Ordered = (%d, %v), want (%d, nil)", workers, i, err, len(done))
		}
		for i, ok := range done {
			if !ok {
				t.Fatalf("workers=%d: task %d never ran", workers, i)
			}
		}
	}
}

// TestOrderedLowestFailureWins: tasks 3 and 5 fail, and when they run
// concurrently task 3 returns only once task 5 has; every worker count
// reports task 3.
func TestOrderedLowestFailureWins(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		fiveFailed := make(chan struct{})
		i, err := Ordered(context.Background(), 16, workers, func(_ context.Context, _, i int) error {
			switch i {
			case 3:
				if workers > 1 {
					<-fiveFailed
				}
				return errors.New("task 3")
			case 5:
				close(fiveFailed)
				return errors.New("task 5")
			}
			return nil
		})
		if i != 3 || err == nil || err.Error() != "task 3" {
			t.Fatalf("workers=%d: Ordered = (%d, %v), want (3, task 3)", workers, i, err)
		}
	}
}

// TestOrderedNoTaskStartsAboveFailure: task 0 fails while every other
// goroutine is busy with a task that ends only on cancellation, so no
// goroutine is free to claim a task before the failure is recorded and no
// task at or above the worker count may start.
func TestOrderedNoTaskStartsAboveFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var log startLog
		i, err := Ordered(context.Background(), 100, workers, func(ctx context.Context, _, i int) error {
			log.add(i)
			if i == 0 {
				return errors.New("task 0")
			}
			<-ctx.Done()
			return ctx.Err()
		})
		if i != 0 || err == nil || err.Error() != "task 0" {
			t.Fatalf("workers=%d: Ordered = (%d, %v), want (0, task 0)", workers, i, err)
		}
		if got := log.max(); got >= workers {
			t.Fatalf("workers=%d: task %d started after task 0 failed", workers, got)
		}
	}
}

// TestOrderedCancelsOnlyAbove runs four tasks at once. Task 2 fails; task 3
// must see its context cancelled; tasks 0 and 1 must not, and task 1 then
// fails after task 2 and takes its place.
func TestOrderedCancelsOnlyAbove(t *testing.T) {
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	threeCancelled := make(chan struct{})
	belowCtxErr := make([]error, 2)
	i, err := Ordered(context.Background(), n, n, func(ctx context.Context, _, i int) error {
		started.Done()
		switch i {
		case 0, 1:
			<-threeCancelled
			belowCtxErr[i] = ctx.Err()
			if i == 1 {
				return errors.New("task 1")
			}
			return nil
		case 2:
			started.Wait()
			return errors.New("task 2")
		default:
			<-ctx.Done()
			close(threeCancelled)
			return fmt.Errorf("task 3: %w", ctx.Err())
		}
	})
	if i != 1 || err == nil || err.Error() != "task 1" {
		t.Fatalf("Ordered = (%d, %v), want (1, task 1)", i, err)
	}
	for i, e := range belowCtxErr {
		if e != nil {
			t.Fatalf("task %d below the failure saw its context cancelled: %v", i, e)
		}
	}
}

func TestOrderedCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2, 8} {
		i, err := Ordered(ctx, 10, workers, func(context.Context, int, int) error {
			t.Errorf("workers=%d: a task started under a cancelled context", workers)
			return nil
		})
		if i != 0 || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Ordered = (%d, %v), want (0, context.Canceled)", workers, i, err)
		}
	}
}

// TestOrderedCancelMidway cancels the context while the first tasks run:
// they finish, nothing new starts, and Ordered reports the first task it
// did not start.
func TestOrderedCancelMidway(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started sync.WaitGroup
		started.Add(workers)
		var log startLog
		i, err := Ordered(ctx, 100, workers, func(ctx context.Context, _, i int) error {
			log.add(i)
			started.Done()
			if i == 0 {
				started.Wait()
				cancel()
				return nil
			}
			<-ctx.Done()
			return nil
		})
		cancel()
		if i != workers || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: Ordered = (%d, %v), want (%d, context.Canceled)", workers, i, err, workers)
		}
		if got := log.max(); got != workers-1 {
			t.Fatalf("workers=%d: highest started task %d, want %d", workers, got, workers-1)
		}
	}
}

func noop(context.Context, int, int) error { return nil }

// onTestStack reports whether TestOrderedInline is on the calling
// goroutine's stack.
func onTestStack() bool {
	pcs := make([]uintptr, 32)
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".TestOrderedInline") {
			return true
		}
		if !more {
			return false
		}
	}
}

// TestOrderedInline: one worker, or one task at any worker count, runs on
// the caller's goroutine and allocates nothing; more run elsewhere.
func TestOrderedInline(t *testing.T) {
	for _, c := range []struct {
		n, workers int
		inline     bool
	}{{5, 1, true}, {5, 0, true}, {1, 8, true}, {5, 2, false}} {
		var on, off atomic.Bool
		Ordered(context.Background(), c.n, c.workers, func(context.Context, int, int) error {
			if onTestStack() {
				on.Store(true)
			} else {
				off.Store(true)
			}
			return nil
		})
		if on.Load() != c.inline || off.Load() == c.inline {
			t.Fatalf("n=%d workers=%d: tasks on the caller's goroutine %v, elsewhere %v; want inline %v",
				c.n, c.workers, on.Load(), off.Load(), c.inline)
		}
		if !c.inline {
			continue
		}
		ctx := context.Background()
		if allocs := testing.AllocsPerRun(100, func() { Ordered(ctx, c.n, c.workers, noop) }); allocs != 0 {
			t.Fatalf("n=%d workers=%d: %v allocations per call, want 0", c.n, c.workers, allocs)
		}
	}
}
