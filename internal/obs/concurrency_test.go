package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// syncBuffer is a mutex-guarded bytes.Buffer for tests that write from a
// background goroutine (the periodic emitter).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestCountersExactUnderConcurrency is the telemetry-exactness property
// test: N goroutines hammer every instrument kind concurrently (with
// snapshots racing against them), and the final snapshot must equal the
// known totals exactly — counters and histograms lose nothing under
// contention. Run under -race in CI.
func TestCountersExactUnderConcurrency(t *testing.T) {
	const (
		goroutines = 16
		perG       = 10_000
	)
	m := Enable()
	defer Disable()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sm, em := m.Sched(), m.Explore()
			for i := 0; i < perG; i++ {
				sm.Steps.Inc()
				sm.NullsSkipped.Add(3)
				sm.GeomSkips.Observe(int64(i % 128))
				em.InternShard.Add(g, 1)
				m.Sim().WorkerNanos.Add(g, 2)
				if i%1024 == 0 {
					_, _ = json.Marshal(m) // snapshots race with writers by design
				}
			}
		}(g)
	}
	wg.Wait()

	if want := int64(goroutines * perG); m.Sched().Steps.Load() != want {
		t.Errorf("Steps = %d, want %d", m.Sched().Steps.Load(), want)
	}
	if want := int64(3 * goroutines * perG); m.Sched().NullsSkipped.Load() != want {
		t.Errorf("NullsSkipped = %d, want %d", m.Sched().NullsSkipped.Load(), want)
	}
	h := histJSON(t, &m.Sched().GeomSkips)
	if want := int64(goroutines * perG); h.Count != want {
		t.Errorf("GeomSkips.Count = %d, want %d", h.Count, want)
	}
	// Σ (i % 128) over perG iterations, per goroutine.
	var sumPerG int64
	for i := 0; i < perG; i++ {
		sumPerG += int64(i % 128)
	}
	if want := sumPerG * goroutines; h.Sum != want {
		t.Errorf("GeomSkips.Sum = %d, want %d", h.Sum, want)
	}
	if h.Min != 0 || h.Max != 127 {
		t.Errorf("GeomSkips min/max = %d/%d, want 0/127", h.Min, h.Max)
	}
	var bucketTotal int64
	for _, b := range h.Log2Buckets {
		bucketTotal += b
	}
	if bucketTotal != h.Count {
		t.Errorf("bucket total = %d, want %d", bucketTotal, h.Count)
	}
	for g := 0; g < goroutines; g++ {
		if got := m.Explore().InternShard.Load(g); got != perG {
			t.Errorf("InternShard[%d] = %d, want %d", g, got, perG)
		}
		if got := m.Sim().WorkerNanos.Load(g); got != 2*perG {
			t.Errorf("WorkerNanos[%d] = %d, want %d", g, got, 2*perG)
		}
	}
}

// TestHistCountIsBucketSum pins that Hist keeps no separate count: after N
// concurrent Observe calls, Count() and the marshalled count both equal N
// and the sum of the buckets. Run under -race in CI.
func TestHistCountIsBucketSum(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5_000
		n          = goroutines * perG
	)
	var h Hist
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
				if i%1000 == 0 {
					_, _ = json.Marshal(&h) // snapshots race with writers by design
				}
			}
		}(g)
	}
	wg.Wait()
	s := histJSON(t, &h)
	var buckets int64
	for _, b := range s.Log2Buckets {
		buckets += b
	}
	if h.Count() != n || s.Count != n || buckets != n {
		t.Fatalf("Count() = %d, marshalled count = %d, Σ buckets = %d, want %d each",
			h.Count(), s.Count, buckets, n)
	}
}
