// Package par is the one fan-out of indexed tasks: simulate's runs and
// sweep points and explore's population sizes and frontier chunks all run
// through Ordered, so each gets the same result and the same error at every
// worker count.
package par

import (
	"context"
	"sync"
)

// Ordered runs task(ctx, w, i) for every i in [0, n) on at most
// min(workers, n) goroutines, and waits for every task it started before it
// returns. w is the index of the goroutine running the task, in
// [0, min(workers, n)).
//
// Tasks are claimed in index order, and the lowest failing index wins. Once
// task f has failed, no task above f starts, the running tasks above f see
// their ctx cancelled, and the running tasks below f finish (one of them may
// fail in turn and take f's place). Ordered returns the lowest failing
// index and its error; the errors of tasks above it are dropped. When ctx is
// cancelled no new task starts, and if no task failed Ordered returns the
// first index it did not start with ctx.Err(). When every task succeeds it
// returns n and nil. Tasks whose outcome depends only on their index thus
// give the same result and the same error at every worker count.
//
// With one worker or one task the tasks run in order on the caller's
// goroutine, and Ordered allocates nothing.
func Ordered(ctx context.Context, n, workers int, task func(ctx context.Context, w, i int) error) (int, error) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return i, err
			}
			if err := task(ctx, 0, i); err != nil {
				return i, err
			}
		}
		return n, nil
	}

	// One context per goroutine is enough: a goroutine whose context is
	// cancelled runs a task above a failure, so it claims nothing after it.
	type worker struct {
		ctx     context.Context
		cancel  context.CancelFunc
		running int // index of the task it runs, or -1 between tasks
	}
	ws := make([]worker, workers)
	for w := range ws {
		ws[w].ctx, ws[w].cancel = context.WithCancel(ctx)
		ws[w].running = -1
	}
	var (
		mu       sync.Mutex
		next     int
		failed   = n // lowest failed index; n while none has failed
		firstErr error
		wg       sync.WaitGroup
	)
	// fail records that task i failed with err and cancels the running
	// tasks above it. The caller holds mu.
	fail := func(i int, err error) {
		if i >= failed {
			return
		}
		failed, firstErr = i, err
		for w := range ws {
			if ws[w].running > i {
				ws[w].cancel()
			}
		}
	}
	wg.Add(workers)
	for w := range ws {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || failed < n {
					mu.Unlock()
					return
				}
				if err := ctx.Err(); err != nil {
					fail(i, err)
					mu.Unlock()
					return
				}
				next++
				ws[w].running = i
				mu.Unlock()

				err := task(ws[w].ctx, w, i)

				mu.Lock()
				ws[w].running = -1
				if err != nil {
					fail(i, err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for w := range ws {
		ws[w].cancel()
	}
	return failed, firstErr
}
