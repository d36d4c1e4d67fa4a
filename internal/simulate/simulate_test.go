package simulate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sched"
)

func epidemic(t testing.TB) *protocol.Protocol {
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

func majority(t testing.TB) *protocol.Protocol {
	t.Helper()
	b := protocol.NewBuilder("majority")
	b.Input("X", "Y")
	b.Transition("X", "Y", "x", "x")
	b.Transition("X", "y", "X", "x")
	b.Transition("Y", "x", "Y", "y")
	b.Transition("x", "y", "x", "x")
	b.Accepting("X", "x")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randomPair is the per-step uniform random-pair sampler: BatchRandomPair
// with its StepN hidden, so Run drives it one Step at a time and draws
// exactly the random stream of sched's RandomPair oracle.
func randomPair(p *protocol.Protocol, seed int64) sched.Scheduler {
	return struct{ sched.Scheduler }{sched.NewBatchRandomPair(p, sched.NewRand(seed))}
}

func TestRunEpidemicQuiescent(t *testing.T) {
	p := epidemic(t)
	c, _ := p.InitialConfig(1, 29)
	s := randomPair(p, 1)
	res, err := Run(p, c, s, Options{MaxSteps: 1_000_000, QuiescencePeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("output = %v, want true", res.Output)
	}
	if !res.Quiescent {
		t.Fatal("epidemic should reach definite quiescence")
	}
	if res.Final.Count(p.StateIndex("I")) != 30 {
		t.Fatalf("final config %v", res.Final.Format(p.States))
	}
	if res.EffectiveSteps != 29 {
		t.Fatalf("EffectiveSteps = %d, want 29 infections", res.EffectiveSteps)
	}
}

func TestRunMajorityBothDirections(t *testing.T) {
	p := majority(t)
	cases := []struct {
		x, y int64
		want protocol.Output
	}{
		{10, 5, protocol.OutputTrue},
		{5, 10, protocol.OutputFalse},
		{7, 7, protocol.OutputTrue}, // tie counts as x ≥ y
	}
	for _, tc := range cases {
		c, err := p.InitialConfig(tc.x, tc.y)
		if err != nil {
			t.Fatal(err)
		}
		s := randomPair(p, tc.x*100+tc.y)
		res, err := Run(p, c, s, Options{MaxSteps: 5_000_000})
		if err != nil {
			t.Fatalf("x=%d y=%d: %v", tc.x, tc.y, err)
		}
		if res.Output != tc.want {
			t.Fatalf("x=%d y=%d: output %v, want %v", tc.x, tc.y, res.Output, tc.want)
		}
	}
}

func TestRunTransitionFairScheduler(t *testing.T) {
	p := majority(t)
	c, _ := p.InitialConfig(6, 3)
	s := sched.NewTransitionFair(p, sched.NewRand(2))
	res, err := Run(p, c, s, Options{MaxSteps: 100_000, QuiescencePeriod: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("output = %v", res.Output)
	}
}

func TestRunRejectsEmptyConfig(t *testing.T) {
	p := epidemic(t)
	c := p.NewConfig()
	s := randomPair(p, 3)
	if _, err := Run(p, c, s, Options{}); err == nil {
		t.Fatal("Run accepted an empty configuration")
	}
}

func TestRunBudgetExhausted(t *testing.T) {
	// An oscillating protocol never stabilises: a ↔ b flip-flop.
	b := protocol.NewBuilder("flipflop")
	b.Input("a", "z")
	b.Transition("a", "z", "b", "z")
	b.Transition("b", "z", "a", "z")
	b.Accepting("a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(1, 1)
	s := sched.NewTransitionFair(p, sched.NewRand(4))
	_, err = Run(p, c, s, Options{MaxSteps: 2_000, StableWindow: 100_000})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
}

func TestParallelTime(t *testing.T) {
	p := epidemic(t)
	c, _ := p.InitialConfig(1, 9)
	s := randomPair(p, 5)
	res, err := Run(p, c, s, Options{MaxSteps: 100_000, QuiescencePeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ParallelTime(); got != float64(res.Steps)/10 {
		t.Fatalf("ParallelTime = %v, want %v", got, float64(res.Steps)/10)
	}
}

func TestMeasureConvergence(t *testing.T) {
	p := majority(t)
	stats, err := MeasureConvergence(p, []int64{8, 4}, true, 5, 7, Options{MaxSteps: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 5 {
		t.Fatalf("Runs = %d", stats.Runs)
	}
	if stats.WrongOutputs != 0 {
		t.Fatalf("WrongOutputs = %d, want 0", stats.WrongOutputs)
	}
	if stats.MeanSteps <= 0 || stats.MaxSteps <= 0 {
		t.Fatalf("degenerate stats %+v", stats)
	}
	if stats.MeanEffective > stats.MeanSteps {
		t.Fatalf("effective steps exceed total steps: %+v", stats)
	}
}

func TestMeasureConvergenceCountsWrongOutputs(t *testing.T) {
	p := majority(t)
	// Expect the wrong answer: every run must be counted as wrong.
	stats, err := MeasureConvergence(p, []int64{8, 2}, false, 3, 11, Options{MaxSteps: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WrongOutputs != 3 {
		t.Fatalf("WrongOutputs = %d, want 3", stats.WrongOutputs)
	}
}

func TestMeasureConvergenceValidatesRuns(t *testing.T) {
	p := majority(t)
	if _, err := MeasureConvergence(p, []int64{1, 1}, true, 0, 1, Options{}); err == nil {
		t.Fatal("accepted runs = 0")
	}
}

// TestConvergenceStepQuiescentNoOutputChange is the regression test for
// the ConvergenceStep accounting fix: a run whose output never changes but
// whose configuration keeps evolving until quiescence must report the first
// step of the final stable stretch (the step the configuration froze), not
// step 0. The "gather" protocol has every state accepting, so the output is
// constantly true while the 9 b-agents are converted one by one.
func TestConvergenceStepQuiescentNoOutputChange(t *testing.T) {
	b := protocol.NewBuilder("gather")
	b.Input("a", "b")
	b.Transition("a", "b", "a", "a")
	b.Accepting("a", "b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int64{0, 64} {
		c, _ := p.InitialConfig(1, 9)
		s := sched.NewBatchRandomPair(p, sched.NewRand(5))
		res, err := Run(p, c, s, Options{
			MaxSteps: 1_000_000, StableWindow: 1 << 40,
			QuiescencePeriod: 10, BatchSize: batch,
		})
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if !res.Quiescent {
			t.Fatalf("batch=%d: gather must end quiescent", batch)
		}
		if res.EffectiveSteps != 9 {
			t.Fatalf("batch=%d: EffectiveSteps = %d, want 9", batch, res.EffectiveSteps)
		}
		// The configuration froze at the 9th conversion, which cannot
		// happen before step 9; reporting 0 under-reports convergence.
		if res.ConvergenceStep < 9 || res.ConvergenceStep > res.Steps {
			t.Fatalf("batch=%d: ConvergenceStep = %d of %d steps, want ≥ 9",
				batch, res.ConvergenceStep, res.Steps)
		}
	}
}

func TestRunBatchedEpidemicQuiescent(t *testing.T) {
	p := epidemic(t)
	c, _ := p.InitialConfig(1, 29)
	s := sched.NewBatchRandomPair(p, sched.NewRand(1))
	res, err := Run(p, c, s, Options{
		MaxSteps: 1_000_000, QuiescencePeriod: 10, BatchSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("output = %v, want true", res.Output)
	}
	if !res.Quiescent {
		t.Fatal("epidemic should reach definite quiescence")
	}
	if res.Final.Count(p.StateIndex("I")) != 30 {
		t.Fatalf("final config %v", res.Final.Format(p.States))
	}
	if res.EffectiveSteps != 29 {
		t.Fatalf("EffectiveSteps = %d, want 29 infections", res.EffectiveSteps)
	}
	// Quiescence checks are aligned to period boundaries even when the
	// batch size is larger than the period.
	if res.Steps%10 != 0 {
		t.Fatalf("quiescent return off the period boundary: %d steps", res.Steps)
	}
}

func TestRunBatchedMajorityBothDirections(t *testing.T) {
	p := majority(t)
	cases := []struct {
		x, y int64
		want protocol.Output
	}{
		{10, 5, protocol.OutputTrue},
		{5, 10, protocol.OutputFalse},
	}
	for _, tc := range cases {
		c, err := p.InitialConfig(tc.x, tc.y)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.NewBatchRandomPair(p, sched.NewRand(tc.x*100+tc.y))
		res, err := Run(p, c, s, Options{
			MaxSteps: 5_000_000, BatchSize: 512,
		})
		if err != nil {
			t.Fatalf("x=%d y=%d: %v", tc.x, tc.y, err)
		}
		if res.Output != tc.want {
			t.Fatalf("x=%d y=%d: output %v, want %v", tc.x, tc.y, res.Output, tc.want)
		}
	}
}

func TestRunBatchedBudgetExhausted(t *testing.T) {
	b := protocol.NewBuilder("flipflop")
	b.Input("a", "z")
	b.Transition("a", "z", "b", "z")
	b.Transition("b", "z", "a", "z")
	b.Accepting("a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(1, 1)
	s := sched.NewBatchRandomPair(p, sched.NewRand(4))
	res, err := Run(p, c, s, Options{
		MaxSteps: 2_000, StableWindow: 100_000, BatchSize: 300,
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if res.Steps != 2_000 {
		t.Fatalf("budget-exhausted run took %d steps, want exactly 2000", res.Steps)
	}
}

// TestMeasureConvergenceWorkersBitIdentical: the worker pool must not
// change a single statistic — per-run RNGs derive from seed+i and results
// aggregate in run order.
func TestMeasureConvergenceWorkersBitIdentical(t *testing.T) {
	p := majority(t)
	for _, batch := range []int64{0, 256} {
		base := Options{MaxSteps: 5_000_000, BatchSize: batch}
		seq, err := MeasureConvergence(p, []int64{8, 4}, true, 6, 7, base)
		if err != nil {
			t.Fatal(err)
		}
		parOpts := base
		parOpts.Workers = 4
		par, err := MeasureConvergence(p, []int64{8, 4}, true, 6, 7, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		if *seq != *par {
			t.Fatalf("batch=%d: workers changed the statistics:\nseq %+v\npar %+v", batch, seq, par)
		}
	}
}

func TestMeasureConvergenceSamplesWorkersBitIdentical(t *testing.T) {
	p := majority(t)
	seqStats, seq, err := MeasureConvergenceWithSamples(p, []int64{6, 3}, true, 5, 3, Options{MaxSteps: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	parStats, par, err := MeasureConvergenceWithSamples(p, []int64{6, 3}, true, 5, 3, Options{
		MaxSteps: 5_000_000, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if *seqStats != *parStats {
		t.Fatalf("workers changed the statistics:\nseq %+v\npar %+v", seqStats, parStats)
	}
	if len(seq) != len(par) {
		t.Fatalf("sample counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, seq[i], par[i])
		}
	}
}

// TestMeasureConvergenceBatchedStatisticsSane: the batched fast path is a
// different (equivalent) sampler, so step counts differ run by run from the
// per-step path — but aggregate behaviour must stay in family: every run
// still converges to the right output.
func TestMeasureConvergenceBatchedStatisticsSane(t *testing.T) {
	p := majority(t)
	stats, err := MeasureConvergence(p, []int64{8, 4}, true, 5, 7, Options{
		MaxSteps: 5_000_000, BatchSize: 1024, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WrongOutputs != 0 {
		t.Fatalf("WrongOutputs = %d, want 0", stats.WrongOutputs)
	}
	if stats.MeanSteps <= 0 || stats.MeanEffective > stats.MeanSteps {
		t.Fatalf("degenerate stats %+v", stats)
	}
}

func TestConvergenceStepTracksLastOutputChange(t *testing.T) {
	p := epidemic(t)
	c, _ := p.InitialConfig(1, 19)
	s := randomPair(p, 13)
	res, err := Run(p, c, s, Options{MaxSteps: 1_000_000, QuiescencePeriod: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The output flips from mixed to true at the final infection; the
	// convergence step must be no later than the total step count and
	// positive (the initial configuration is mixed).
	if res.ConvergenceStep <= 0 || res.ConvergenceStep > res.Steps {
		t.Fatalf("ConvergenceStep = %d of %d", res.ConvergenceStep, res.Steps)
	}
}

// TestEmptyKernelMatchesExact pins that an empty Kernel means KernelExact:
// byte-identical statistics and samples at every worker count.
func TestEmptyKernelMatchesExact(t *testing.T) {
	p := majority(t)
	for _, workers := range []int{1, 2} {
		var views []string
		for _, kernel := range []string{"", KernelExact} {
			stats, samples, err := MeasureConvergenceWithSamples(p, []int64{30, 21}, true, 6, 5,
				Options{Kernel: kernel, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, fmt.Sprintf("%+v %v", *stats, samples))
		}
		if views[0] != views[1] {
			t.Fatalf("workers=%d: empty kernel %s\nexact kernel %s", workers, views[0], views[1])
		}
	}
}

// TestMeasureRunsFirstErrorInRunOrder pins measureRuns' error contract. At
// seed 5 runs 0 and 1 converge within 50 steps while runs 2, 4, 7 and 8 run
// out of budget; every worker count must report run 2's error.
func TestMeasureRunsFirstErrorInRunOrder(t *testing.T) {
	p := epidemic(t)
	var want string
	for _, workers := range []int{1, 2, 8} {
		_, err := measureRuns(p, []int64{1, 15}, 10, 5,
			Options{MaxSteps: 50, QuiescencePeriod: 10, Workers: workers})
		if !errors.Is(err, ErrBudgetExhausted) || !strings.HasPrefix(err.Error(), "run 2: ") {
			t.Fatalf("workers=%d: err = %v, want run 2's budget error", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Fatalf("workers=%d: err = %q, want %q", workers, err, want)
		}
	}
}

// TestRunAllocsIndependentOfSteps: Run's chunk-boundary checks (the output
// scan and the quiescence scan), the collision kernel's rounds and its
// hand-offs to the exact sampler allocate nothing, so a run's allocation
// count does not grow with its length. Three runs, each with a window no
// run reaches, take 10⁶ and then 10⁷ interactions: majority at m = 10⁶ on
// the batch kernel (62,500-interaction chunks), and four copies of the
// reversible a,b ↔ c,c hovering around 512 agents per species beside an
// inert state, so their categories keep turning critical and back and the
// kernel keeps crossing between bulk rounds and the exact path — on the
// batch kernel at m = 9,144 and on the auto kernel's hybrid at m = 65,536.
func TestRunAllocsIndependentOfSteps(t *testing.T) {
	b := protocol.NewBuilder("hover")
	hoverInput := make([]int64, 0, 13)
	for i := 0; i < 4; i++ {
		a, bb, c := fmt.Sprint("a", i), fmt.Sprint("b", i), fmt.Sprint("c", i)
		b.Input(a, bb, c)
		b.Transition(a, bb, c, c)
		b.Transition(c, c, a, bb)
		b.Accepting(c)
		hoverInput = append(hoverInput, 512, 512, 512)
	}
	b.Input("z")
	hover, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p := majority(t)
	for _, tc := range []struct {
		name   string
		p      *protocol.Protocol
		input  []int64
		kernel string
	}{
		{"majority/batch", p, []int64{550_000, 450_000}, KernelBatch},
		{"hover/batch", hover, append(hoverInput[:12:12], 3_000), KernelBatch},
		{"hover/auto", hover, append(hoverInput[:12:12], AutoFluidThreshold-12*512), KernelAuto},
	} {
		run := func(maxSteps int64) {
			c, err := tc.p.InitialConfig(tc.input...)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Kernel: tc.kernel, MaxSteps: maxSteps, StableWindow: 1 << 62}
			s, err := NewScheduler(tc.p, sched.NewRand(1), opts, c.Size())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Run(tc.p, c, s, opts); !errors.Is(err, ErrBudgetExhausted) {
				t.Fatalf("%s: run of %d steps: err = %v, want ErrBudgetExhausted", tc.name, maxSteps, err)
			}
		}
		if tc.p == hover {
			m := obs.Enable()
			run(10_000_000)
			sm := m.Sched()
			obs.Disable()
			if sm.BatchRounds.Load() < 100 || sm.BatchFallbacks.Load() < 100 {
				t.Fatalf("%s: %d bulk rounds and %d exact chunks over 10⁷ steps; want both ≥ 100",
					tc.name, sm.BatchRounds.Load(), sm.BatchFallbacks.Load())
			}
		}
		allocs := func(maxSteps int64) float64 {
			return testing.AllocsPerRun(1, func() { run(maxSteps) })
		}
		// The counts are equal in a normal build. Under the race detector,
		// sync.Pool drops pooled fmt printers at random, so the error each
		// run returns can cost a few objects more or less; chunks or
		// hand-offs that allocated would cost thousands.
		short, long := allocs(1_000_000), allocs(10_000_000)
		if d := long - short; d < -8 || d > 8 {
			t.Fatalf("%s: Run allocates %.0f objects over 10⁶ steps and %.0f over 10⁷; want equal", tc.name, short, long)
		}
		t.Logf("%s: Run allocates %.0f objects over 10⁶ steps and %.0f over 10⁷", tc.name, short, long)
	}
	c, err := p.InitialConfig(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { p.OutputOf(c) }); n != 0 {
		t.Fatalf("OutputOf allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { p.AnyEnabled(c) }); n != 0 {
		t.Fatalf("AnyEnabled allocates %.0f objects, want 0", n)
	}
}
