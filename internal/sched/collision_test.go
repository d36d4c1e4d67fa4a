package sched

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// epidemicTB is epidemic for benchmarks too.
func epidemicTB(tb testing.TB) *protocol.Protocol {
	tb.Helper()
	b := protocol.NewBuilder("epidemic")
	b.Input("I", "S")
	b.Transition("I", "S", "I", "I")
	b.Transition("S", "I", "I", "I")
	b.Accepting("I")
	p, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// densePairs is a reversible, permanently effective-dominated protocol:
// a,b ↔ c,c. Its counts hover around an interior equilibrium, so p_eff stays
// Θ(1) forever — the regime where the per-step path pays full price per
// interaction and the collision kernel's bulk rounds should win outright.
func densePairs(tb testing.TB) *protocol.Protocol {
	tb.Helper()
	b := protocol.NewBuilder("dense-pairs")
	b.Input("a", "b")
	b.Transition("a", "b", "c", "c")
	b.Transition("c", "c", "a", "b")
	b.Accepting("c")
	p, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestCollisionKernelEpidemicHandoff drives an epidemic big enough that the
// kernel crosses both critical boundaries: exact while fewer than 512 agents
// are infected (every category critical), bulk through the dense middle,
// exact again for the last 512 susceptibles. The run must converge exactly
// (everyone infected, population conserved) and both regimes must actually
// have engaged.
func TestCollisionKernelEpidemicHandoff(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()
	p := epidemicTB(t)
	const n = 40_000
	c, err := p.InitialConfig(1, n-1)
	if err != nil {
		t.Fatal(err)
	}
	k := NewCollisionKernel(p, NewRand(3))
	iState := p.StateIndex("I")
	var total, eff int64
	for round := 0; round < 10_000 && c.Count(iState) != n; round++ {
		eff += k.StepN(c, 1<<14)
		total += 1 << 14
	}
	if c.Count(iState) != n {
		t.Fatalf("epidemic did not converge: %d of %d infected", c.Count(iState), n)
	}
	if c.Size() != n {
		t.Fatalf("population size %d, want %d", c.Size(), n)
	}
	if eff != int64(n-1) {
		t.Fatalf("effective interactions = %d, want exactly n-1 = %d", eff, n-1)
	}
	sm := m.Sched()
	if sm.BatchRounds.Load() == 0 {
		t.Fatal("bulk path never engaged on a 40k-agent epidemic")
	}
	if sm.BatchFallbacks.Load() == 0 {
		t.Fatal("fallback path never engaged (boundary handoff untested)")
	}
	if sm.Steps.Load() != total {
		t.Fatalf("Steps = %d, want %d requested decisions", sm.Steps.Load(), total)
	}
	if sm.Effective.Load() != eff {
		t.Fatalf("Effective = %d, want %d", sm.Effective.Load(), eff)
	}
	if sm.NullsSkipped.Load() > total-eff {
		t.Fatalf("NullsSkipped = %d exceeds null decisions %d", sm.NullsSkipped.Load(), total-eff)
	}
	if sm.BatchRoundSize.Count() != sm.BatchRounds.Load() {
		t.Fatalf("round-size histogram count %d != rounds %d",
			sm.BatchRoundSize.Count(), sm.BatchRounds.Load())
	}
	if sm.InteractionsPerSec.Load() == 0 {
		t.Fatal("interactions/sec gauge never set")
	}
}

// TestCollisionKernelReproducible pins the reproducibility contract: two
// kernels with the same seed produce bit-identical trajectories and
// effective counts, batch boundaries included.
func TestCollisionKernelReproducible(t *testing.T) {
	p := densePairs(t)
	mk := func() (*CollisionKernel, *protocol.Protocol) { return NewCollisionKernel(p, NewRand(42)), p }
	k1, _ := mk()
	k2, _ := mk()
	c1, err := p.InitialConfig(30_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	c2 := c1.Clone()
	for i := 0; i < 20; i++ {
		e1 := k1.StepN(c1, 10_000)
		e2 := k2.StepN(c2, 10_000)
		if e1 != e2 {
			t.Fatalf("chunk %d: effective %d vs %d with equal seeds", i, e1, e2)
		}
		if !c1.Equal(c2) {
			t.Fatalf("chunk %d: configurations diverged with equal seeds:\n%v\n%v", i, c1, c2)
		}
	}
}

// TestCollisionKernelDeadConfiguration mirrors the BatchRandomPair dead-path
// test: with no reactive pair enabled the whole batch is null.
func TestCollisionKernelDeadConfiguration(t *testing.T) {
	b := protocol.NewBuilder("inert")
	b.Input("a")
	b.Transition("b", "b", "a", "a")
	b.Accepting("a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(100_000)
	k := NewCollisionKernel(p, NewRand(9))
	if eff := k.StepN(c, 1_000_000_000); eff != 0 {
		t.Fatalf("dead configuration reported %d effective steps", eff)
	}
	if c.Count(p.StateIndex("a")) != 100_000 {
		t.Fatalf("dead configuration changed: %v", c.Format(p.States))
	}
}

// TestCollisionKernelForcedBulkInvariants loosens the round knobs so bulk
// rounds run even on small populations (critical 2: only a count below 2
// makes a category critical), and checks the structural invariants:
// conservation, non-negative counts, legal states only, and both regimes
// engaged.
func TestCollisionKernelForcedBulkInvariants(t *testing.T) {
	protos := []*protocol.Protocol{epidemicTB(t), densePairs(t)}
	for _, p := range protos {
		for seed := int64(1); seed <= 5; seed++ {
			c, err := p.InitialConfig(64, 192)
			if err != nil {
				t.Fatal(err)
			}
			size := c.Size()
			m := obs.Enable() // before construction: the kernel captures the group
			k := NewCollisionKernel(p, NewRand(seed))
			k.margin = 2
			k.critical = 2
			k.roundCap = 64
			for i := 0; i < 50; i++ {
				if e := k.StepN(c, 500); e < 0 || e > 500 {
					t.Fatalf("effective count %d out of [0, 500]", e)
				}
			}
			sm := m.Sched()
			obs.Disable()
			if sm.BatchRounds.Load() == 0 || sm.BatchFallbacks.Load() == 0 {
				t.Fatalf("%s seed %d: %d bulk rounds, %d exact chunks; want both regimes",
					p.Name, seed, sm.BatchRounds.Load(), sm.BatchFallbacks.Load())
			}
			if c.Size() != size {
				t.Fatalf("%s seed %d: population %d, want %d", p.Name, seed, c.Size(), size)
			}
			for i := 0; i < c.Len(); i++ {
				if c.Count(i) < 0 {
					t.Fatalf("%s seed %d: negative count at state %d", p.Name, seed, i)
				}
			}
		}
	}
}

// TestCollisionKernelStepDelegates: the per-step entry point is the exact
// sampler, identical to BatchRandomPair.Step draw for draw.
func TestCollisionKernelStepDelegates(t *testing.T) {
	p := epidemicTB(t)
	c1, _ := p.InitialConfig(2, 18)
	c2 := c1.Clone()
	k := NewCollisionKernel(p, NewRand(11))
	ref := NewBatchRandomPair(p, NewRand(11))
	for i := 0; i < 2000; i++ {
		ch1 := k.Step(c1)
		ch2 := ref.Step(c2)
		if ch1 != ch2 || !c1.Equal(c2) {
			t.Fatalf("step %d: kernel Step diverged from BatchRandomPair", i)
		}
	}
}

// TestBinomialSamplerMoments checks the binomial sampler's mean and variance
// on both branches (inversion and BTPE, the latter also mirrored for
// p > 1/2) against the analytic values.
func TestBinomialSamplerMoments(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{40, 0.3},        // inversion: mean 12
		{100000, 0.0002}, // inversion at scale: mean 20
		{4096, 0.5},      // BTPE: mean 2048
		{100000, 0.9},    // BTPE on the 10000 expected failures
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d,p=%g", tc.n, tc.p), func(t *testing.T) {
			rng := NewRand(1)
			const trials = 20000
			var sum, sumSq float64
			for i := 0; i < trials; i++ {
				v := float64(binomial(rng, tc.n, tc.p))
				if v < 0 || v > float64(tc.n) {
					t.Fatalf("draw %v outside [0, %d]", v, tc.n)
				}
				sum += v
				sumSq += v * v
			}
			mean := sum / trials
			variance := sumSq/trials - mean*mean
			wantMean := float64(tc.n) * tc.p
			wantVar := wantMean * (1 - tc.p)
			if d := math.Abs(mean-wantMean) / math.Sqrt(wantVar/trials); d > 5 {
				t.Fatalf("mean %.2f, want %.2f (%.1f sigma off)", mean, wantMean, d)
			}
			if variance < wantVar*0.9 || variance > wantVar*1.1 {
				t.Fatalf("variance %.2f, want %.2f ±10%%", variance, wantVar)
			}
		})
	}
}

// TestCollisionKernelBulkAllocFree: steady-state bulk rounds must not
// allocate, telemetry on or off, matching the standard the exact path is
// held to.
func TestCollisionKernelBulkAllocFree(t *testing.T) {
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"obs-disabled", false}, {"obs-enabled", true}} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.enabled {
				obs.Enable()
				defer obs.Disable()
			}
			p := densePairs(t)
			c, err := p.InitialConfig(200_000, 200_000)
			if err != nil {
				t.Fatal(err)
			}
			k := NewCollisionKernel(p, NewRand(5))
			k.StepN(c, 1<<16) // warm up: scratch capacity, first rounds
			if allocs := testing.AllocsPerRun(20, func() {
				k.StepN(c, 1<<16)
			}); allocs != 0 {
				t.Fatalf("bulk StepN allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// BenchmarkStepN is the acceptance benchmark: exact vs collision kernel on
// an effective-interaction-dominated protocol at n = 2^20 ≈ 10^6 agents.
// The exact path pays O(log|Q|) per effective interaction; the collision
// kernel pays O(#categories) per bulk round. represented/s counts every
// interaction a call stands for, the analytically skipped nulls included;
// effective/s counts only those StepN reports as changing the
// configuration.
func BenchmarkStepN(b *testing.B) {
	const n = 1 << 20
	const chunk = 1 << 16
	kernels := []struct {
		name string
		mk   func(p *protocol.Protocol) BatchScheduler
	}{
		{"kernel=exact", func(p *protocol.Protocol) BatchScheduler { return NewBatchRandomPair(p, NewRand(1)) }},
		{"kernel=batch", func(p *protocol.Protocol) BatchScheduler { return NewCollisionKernel(p, NewRand(1)) }},
	}
	for _, kn := range kernels {
		b.Run("dense/"+kn.name+fmt.Sprintf("/n=%d", n), func(b *testing.B) {
			p := densePairs(b)
			c, err := p.InitialConfig(n/2, n/2)
			if err != nil {
				b.Fatal(err)
			}
			s := kn.mk(p)
			s.StepN(c, chunk) // attach + warm up
			b.ReportAllocs()
			b.ResetTimer()
			var eff int64
			for i := 0; i < b.N; i++ {
				eff += s.StepN(c, chunk)
			}
			reportStepN(b, chunk, eff)
		})
	}
	// Null-dominated contrast: the collision kernel must not regress the
	// geometric null-skip regime it falls back to.
	for _, kn := range kernels {
		b.Run("pointer/"+kn.name, func(b *testing.B) {
			p := pointerMachine(b)
			c, err := p.InitialConfig(1, n-1)
			if err != nil {
				b.Fatal(err)
			}
			s := kn.mk(p)
			s.StepN(c, chunk)
			b.ReportAllocs()
			b.ResetTimer()
			var eff int64
			for i := 0; i < b.N; i++ {
				eff += s.StepN(c, chunk)
			}
			reportStepN(b, chunk, eff)
		})
	}
}

// reportStepN reports BenchmarkStepN's per-interaction cost and its
// represented and effective throughputs, for b.N calls of chunk
// interactions of which eff were effective.
func reportStepN(b *testing.B, chunk, eff int64) {
	represented := float64(b.N) * float64(chunk)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/represented, "ns/interaction")
	b.ReportMetric(represented/b.Elapsed().Seconds(), "represented/s")
	b.ReportMetric(float64(eff)/b.Elapsed().Seconds(), "effective/s")
}
