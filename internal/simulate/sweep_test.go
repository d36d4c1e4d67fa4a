package simulate

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sched"
)

func buildEpidemic(t *testing.T) *protocol.Protocol {
	t.Helper()
	b := protocol.NewBuilder("epidemic")
	b.Input("I", "S")
	b.Transition("I", "S", "I", "I")
	b.Transition("S", "I", "I", "I")
	b.Accepting("I")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sweepReference measures each point on its own, with the seed
// SweepResumable assigns it: the reference the sweep tests compare against.
func sweepReference(p *protocol.Protocol, inputs [][]int64, expected func([]int64) bool,
	runs int, seed int64, opts Options) []SweepPoint {
	points := make([]SweepPoint, len(inputs))
	for idx, in := range inputs {
		stats, err := MeasureConvergence(p, in, expected(in), runs, SweepPointSeed(seed, idx), opts)
		points[idx] = SweepPoint{Inputs: in, Stats: stats, Err: err}
	}
	return points
}

func TestSweepParallelMatchesSequential(t *testing.T) {
	p := buildEpidemic(t)
	inputs := [][]int64{{1, 7}, {1, 15}, {1, 31}, {1, 63}}
	expected := func([]int64) bool { return true }
	opts := Options{MaxSteps: 50_000_000, QuiescencePeriod: 32}

	want := pointsView(t, sweepReference(p, inputs, expected, 3, 11, opts))
	for _, workers := range []int{1, 4} {
		sweepOpts := opts
		sweepOpts.Workers = workers
		points, err := SweepResumable(context.Background(), p, inputs, expected, 3, 11, sweepOpts, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Same seeds → identical statistics regardless of worker count.
		if got := pointsView(t, points); got != want {
			t.Fatalf("workers=%d: sweep diverged from per-point measurement:\n%s\nvs\n%s", workers, got, want)
		}
		for i, pt := range points {
			if pt.Err != nil {
				t.Fatalf("point %d errored: %v", i, pt.Err)
			}
		}
		// The sweep shape: interactions grow with population size.
		if points[len(points)-1].Stats.MeanSteps <= points[0].Stats.MeanSteps {
			t.Fatalf("mean interactions did not grow with m: %v vs %v",
				points[0].Stats.MeanSteps, points[len(points)-1].Stats.MeanSteps)
		}
	}
}

// TestSweepRunsInFlightBounded: a sweep fans its points out over
// Options.Workers and each point measures its runs on one goroutine, so at
// Workers = 4 at most 4 runs execute at once, not 4 per point. Every run
// therefore lands in WorkerRuns slot 0, the only slot of a per-point pool.
func TestSweepRunsInFlightBounded(t *testing.T) {
	met := obs.Enable()
	defer obs.Disable()
	p := buildEpidemic(t)
	var inputs [][]int64
	for i := 0; i < 8; i++ {
		inputs = append(inputs, []int64{1, int64(7 + 4*i)})
	}
	const runs = 4
	if _, err := SweepResumable(context.Background(), p, inputs, func([]int64) bool { return true },
		runs, 3, Options{QuiescencePeriod: 32, Workers: 4}, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := met.Sim().WorkerRuns.Load(0), int64(runs*len(inputs)); got != want {
		t.Fatalf("WorkerRuns[0] = %d, want all %d runs", got, want)
	}
	for w := 1; w < obs.VecWidth; w++ {
		if got := met.Sim().WorkerRuns.Load(w); got != 0 {
			t.Fatalf("WorkerRuns[%d] = %d: a point fanned its runs out over more goroutines", w, got)
		}
	}
}

func TestSweepRecordsPerPointErrors(t *testing.T) {
	p := buildEpidemic(t)
	// A budget of 1 step cannot converge the first point; the second must
	// still be measured.
	inputs := [][]int64{{1, 3}, {2, 0}}
	points, err := SweepResumable(context.Background(), p, inputs, func([]int64) bool { return true },
		1, 1, Options{MaxSteps: 1, StableWindow: 100, QuiescencePeriod: 1, Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if points[0].Err == nil {
		t.Fatal("expected a budget error")
	}
	if points[1].Err != nil || points[1].Stats == nil {
		t.Fatalf("the failed point failed the sweep: %+v", points[1])
	}
}

// TestSweepRejectsInvalidOptions: the points measure their runs with
// Workers = 1, so the sweep itself must check the options it fans out over.
func TestSweepRejectsInvalidOptions(t *testing.T) {
	p := buildEpidemic(t)
	for _, opts := range []Options{{Workers: -1}, {Workers: 1 << 20}, {Kernel: "warp"}} {
		points, err := SweepResumable(context.Background(), p, [][]int64{{1, 3}},
			func([]int64) bool { return true }, 1, 1, opts, nil)
		if err == nil || points != nil {
			t.Fatalf("%+v: points %v, err %v; want an options error and no points", opts, points, err)
		}
	}
}

func TestRunTracedSamples(t *testing.T) {
	p := buildEpidemic(t)
	s := sched.NewBatchRandomPair(p, sched.NewRand(5))
	res, trace, err := RunTraced(p, []int64{1, 49}, s, 50, Options{
		MaxSteps: 10_000_000, QuiescencePeriod: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("output %v", res.Output)
	}
	if len(trace.Steps) == 0 || len(trace.Steps) != len(trace.Accepting) {
		t.Fatalf("trace malformed: %v", trace)
	}
	// Accepting counts must be monotone for the one-way epidemic and end
	// at the full population.
	for i := 1; i < len(trace.Accepting); i++ {
		if trace.Accepting[i] < trace.Accepting[i-1] {
			t.Fatalf("epidemic acceptance decreased at sample %d", i)
		}
	}
	if trace.Population != 50 {
		t.Fatalf("population %d", trace.Population)
	}
	if got := trace.Accepting[len(trace.Accepting)-1]; got != 50 {
		t.Fatalf("final accepting count %d, want 50", got)
	}
	if trace.String() == "" {
		t.Fatal("empty trace description")
	}
}

func TestRunTracedPeriodClamped(t *testing.T) {
	p := buildEpidemic(t)
	s := sched.NewBatchRandomPair(p, sched.NewRand(6))
	_, trace, err := RunTraced(p, []int64{1, 4}, s, 0, Options{
		MaxSteps: 1_000_000, QuiescencePeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trace.Period != 1 {
		t.Fatalf("period %d, want clamped to 1", trace.Period)
	}
}
