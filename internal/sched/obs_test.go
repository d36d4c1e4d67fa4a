package sched

import (
	"testing"

	"repro/internal/obs"
)

// TestStepNAllocFree is the telemetry-overhead alloc guard: steady-state
// StepN must not allocate, with telemetry disabled (the default every caller
// pays for) and enabled (atomics only, no allocation on the observation
// path). The pointer machine keeps the skip path engaged, so this covers
// the geometric draws, the conditional effective-step sampling and the
// weight updates.
func TestStepNAllocFree(t *testing.T) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"obs-disabled", false}, {"obs-enabled", true}} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.enabled {
				obs.Enable()
				defer obs.Disable()
			}
			p := pointerMachine(t)
			c, err := p.InitialConfig(1, 19)
			if err != nil {
				t.Fatal(err)
			}
			s := NewBatchRandomPair(p, NewRand(5))
			s.StepN(c, 1_000) // warm up: attach, first geometric draws
			if allocs := testing.AllocsPerRun(50, func() {
				s.StepN(c, 1_000)
			}); allocs != 0 {
				t.Fatalf("StepN allocates %.1f objects per 1000-step batch, want 0", allocs)
			}
		})
	}
}

// TestStepAllocFree holds the per-step schedulers to the same standard.
func TestStepAllocFree(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	p := pointerMachine(t)
	c, err := p.InitialConfig(1, 19)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRandomPair(p, NewRand(5))
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			ref.Step(c)
		}
	}); allocs != 0 {
		t.Fatalf("RandomPair.Step allocates %.1f objects per 100 steps, want 0", allocs)
	}
	fast := NewBatchRandomPair(p, NewRand(5))
	fast.Step(c) // attach
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			fast.Step(c)
		}
	}); allocs != 0 {
		t.Fatalf("BatchRandomPair.Step allocates %.1f objects per 100 steps, want 0", allocs)
	}
}

// TestStepNMetricsConsistent cross-checks the scheduler's telemetry against
// StepN's own return values: over any mix of skip and per-step batches,
// Steps must equal the decisions requested, Effective the reported
// effective steps, and the null-skip accounting must never exceed the
// non-effective remainder.
func TestStepNMetricsConsistent(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()
	p := pointerMachine(t)
	c, err := p.InitialConfig(1, 9)
	if err != nil {
		t.Fatal(err)
	}
	s := NewBatchRandomPair(p, NewRand(11))
	var total, eff int64
	for i := 0; i < 20; i++ {
		eff += s.StepN(c, 777)
		total += 777
	}
	sm := m.Sched()
	if sm.Steps.Load() != total {
		t.Fatalf("Steps = %d, want %d", sm.Steps.Load(), total)
	}
	if sm.Effective.Load() != eff {
		t.Fatalf("Effective = %d, want %d", sm.Effective.Load(), eff)
	}
	if sm.NullsSkipped.Load() > total-eff {
		t.Fatalf("NullsSkipped = %d exceeds null decisions %d", sm.NullsSkipped.Load(), total-eff)
	}
	if sm.NullsSkipped.Load() == 0 {
		t.Fatal("pointer machine engaged no null skipping")
	}
	if sm.GeomSkips.Count() == 0 {
		t.Fatal("no geometric draws recorded")
	}
	if sm.FenwickRebuilds.Load() != 1 {
		t.Fatalf("FenwickRebuilds = %d, want 1 (single attach)", sm.FenwickRebuilds.Load())
	}
}

// BenchmarkStepNObs measures the instrumented fast path with telemetry off
// and on. The "off" number is the regression guard for the disabled-path
// overhead: it must stay within noise of the pre-instrumentation baseline
// (BenchmarkBatchStepN at the repo root tracks the same path end to end).
func BenchmarkStepNObs(b *testing.B) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.enabled {
				obs.Enable()
				defer obs.Disable()
			}
			p := pointerMachine(b)
			c, err := p.InitialConfig(1, 99)
			if err != nil {
				b.Fatal(err)
			}
			s := NewBatchRandomPair(p, NewRand(7))
			s.StepN(c, 1_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepN(c, 1_000)
			}
		})
	}
}
