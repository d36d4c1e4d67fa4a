package explore

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/multiset"
	"repro/internal/obs"
)

// TestExploreMetricsExact cross-checks the explorer's telemetry against the
// exploration result itself: on a deterministic chain graph the counters
// are fully predictable, so this pins them exactly rather than just
// "nonzero".
func TestExploreMetricsExact(t *testing.T) {
	const n = 64
	g := keyedSystem[int](ringAfterPath{depth: n})

	m := obs.Enable()
	defer obs.Disable()
	res, err := ExploreParallel(g, []int{0}, Options{MaxStates: n + 10, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	em := m.Explore()

	if em.Explorations.Load() != 1 {
		t.Fatalf("Explorations = %d, want 1", em.Explorations.Load())
	}
	if em.States.Load() != int64(res.NumStates) {
		t.Fatalf("States = %d, result has %d", em.States.Load(), res.NumStates)
	}
	// Every ringAfterPath state has exactly one successor.
	if em.Edges.Load() != int64(res.NumStates) {
		t.Fatalf("Edges = %d, want %d (one per state)", em.Edges.Load(), res.NumStates)
	}
	// The chain keeps every BFS frontier at width 1, so the level count
	// matches the state count and the frontier histogram is all ones.
	if em.Levels.Load() != int64(res.NumStates) {
		t.Fatalf("Levels = %d, want %d (width-1 frontiers)", em.Levels.Load(), res.NumStates)
	}
	b, err := json.Marshal(&em.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	var frontier struct{ Min, Max int64 }
	if err := json.Unmarshal(b, &frontier); err != nil {
		t.Fatal(err)
	}
	if frontier.Min != 1 || frontier.Max != 1 {
		t.Fatalf("Frontier min/max = %d/%d, want 1/1", frontier.Min, frontier.Max)
	}
	// Every interned state lands in exactly one shard, so shard occupancy
	// must add back up to the state count.
	var shardTotal int64
	for i := 0; i < obs.VecWidth; i++ {
		shardTotal += em.InternShard.Load(i)
	}
	if shardTotal != em.States.Load() {
		t.Fatalf("interner shard occupancy sums to %d, want %d states", shardTotal, em.States.Load())
	}
	if em.InternArenaBytes.Load() == 0 {
		t.Fatal("interner recorded no arena bytes")
	}
	if em.Cancellations.Load() != 0 {
		t.Fatalf("Cancellations = %d on an uncancelled run", em.Cancellations.Load())
	}
	if em.Nanos.Load() <= 0 {
		t.Fatalf("Nanos = %d, want > 0", em.Nanos.Load())
	}
}

// TestExploreMetricsCancellation checks a context-cancelled exploration is
// visible in the telemetry.
func TestExploreMetricsCancellation(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExploreContext(ctx, keyedSystem[int](ringAfterPath{depth: 512}), []int{0},
		Options{Workers: 2}); err == nil {
		t.Fatal("cancelled exploration returned no error")
	}
	if got := m.Explore().Cancellations.Load(); got != 1 {
		t.Fatalf("Cancellations = %d, want 1", got)
	}
}

// TestParallelExploreAllocsPerStateObs re-runs the engine's allocation
// guard with telemetry enabled: the observation path is atomics only, so
// the free walk of TestProtocolExploreAllocsPerState must fit the same one
// object per state as the disabled path.
func TestParallelExploreAllocsPerStateObs(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	const k, m, states = 6, 10, 3003
	p := freeWalkProtocol(t, k)
	sys := NewProtocolSystem(p)
	c := spillInitial(t, p, m)
	allocs := testing.AllocsPerRun(5, func() {
		res, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumStates != states {
			t.Fatalf("NumStates = %d, want %d", res.NumStates, states)
		}
	})
	if perState := allocs / states; perState > 1 {
		t.Fatalf("ExploreParallel with telemetry allocates %.2f objects/state (total %.0f), budget 1", perState, allocs)
	}
}

// BenchmarkExploreParallelObs measures the engine with telemetry off and
// on; the "off" case guards the disabled-path overhead of the
// instrumentation (a captured-nil check per observation site).
func BenchmarkExploreParallelObs(b *testing.B) {
	p := freeWalkProtocol(b, 6)
	sys := NewProtocolSystem(p)
	c := freeWalkInitial(b, p, 10)
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.enabled {
				obs.Enable()
				defer obs.Disable()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
