package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/protocol"
)

// pointerMachine builds a null-interaction-dominated protocol shaped like a
// converted machine: a single instruction-pointer agent cycling between two
// pointer states, moving data agents between A and B. With one pointer
// among m agents, only Θ(1/m) of ordered pairs are reactive.
func pointerMachine(t testing.TB) *protocol.Protocol {
	t.Helper()
	b := protocol.NewBuilder("pointer")
	b.Input("P0", "A")
	b.Transition("P0", "A", "P1", "B")
	b.Transition("P1", "B", "P0", "A")
	b.Accepting("P1", "B")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFenwickMatchesNaive(t *testing.T) {
	counts := []int64{0, 3, 0, 0, 7, 1, 0, 5, 2}
	f := newFenwick(counts)
	var total int64
	for _, c := range counts {
		total += c
	}
	naive := func(target int64) int {
		for i, c := range counts {
			if target < c {
				return i
			}
			target -= c
		}
		t.Fatalf("target %d beyond total", target)
		return -1
	}
	for target := int64(0); target < total; target++ {
		if got, want := f.find(target), naive(target); got != want {
			t.Fatalf("find(%d) = %d, want %d", target, got, want)
		}
	}
	// Point updates keep the mapping exact.
	f.add(4, -7)
	counts[4] = 0
	f.add(0, 2)
	counts[0] = 2
	total = total - 7 + 2
	for target := int64(0); target < total; target++ {
		if got, want := f.find(target), naive(target); got != want {
			t.Fatalf("after update: find(%d) = %d, want %d", target, got, want)
		}
	}
}

// TestBatchStepMatchesRandomPairExactly pins the strongest form of
// equivalence for the per-step path: BatchRandomPair.Step consumes the same
// random draws as RandomPair.Step and maps them to the same outcome, so
// with equal seeds the two schedulers produce identical trajectories.
func TestBatchStepMatchesRandomPairExactly(t *testing.T) {
	p := epidemic(t)
	for seed := int64(0); seed < 5; seed++ {
		c1, _ := p.InitialConfig(2, 18)
		c2 := c1.Clone()
		ref := newRandomPair(p, NewRand(seed))
		fast := NewBatchRandomPair(p, NewRand(seed))
		for i := 0; i < 2000; i++ {
			ch1 := ref.Step(c1)
			ch2 := fast.Step(c2)
			if ch1 != ch2 {
				t.Fatalf("seed %d step %d: changed %v vs %v", seed, i, ch1, ch2)
			}
			if !c1.Equal(c2) {
				t.Fatalf("seed %d step %d: configs diverged: %v vs %v", seed, i, c1, c2)
			}
		}
	}
}

// TestStepNAgreesWithSingleSteps is the property test of the issue: with
// the null-skip disabled, StepN(c, n) is literally n Step calls — the same
// random stream, the same final configuration, and the same effective-step
// count. (With the skip enabled the agreement is distributional; the
// equivalence suite covers that.)
func TestStepNAgreesWithSingleSteps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     *protocol.Protocol
		init  []int64
		batch int64
	}{
		{"epidemic", epidemic(t), []int64{1, 19}, 500},
		{"pointer", pointerMachine(t), []int64{1, 9}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, err := tc.p.InitialConfig(tc.init...)
			if err != nil {
				t.Fatal(err)
			}
			c2 := c1.Clone()
			batched := NewBatchRandomPair(tc.p, NewRand(17))
			batched.skipThreshold = 0 // force the per-step path
			stepper := NewBatchRandomPair(tc.p, NewRand(17))
			eff := batched.StepN(c1, tc.batch)
			var want int64
			for i := int64(0); i < tc.batch; i++ {
				if stepper.Step(c2) {
					want++
				}
			}
			if eff != want {
				t.Fatalf("StepN reported %d effective steps, %d single Steps did", eff, want)
			}
			if !c1.Equal(c2) {
				t.Fatalf("StepN config %v differs from stepped config %v", c1, c2)
			}
		})
	}
}

// TestStepNConservesPopulation checks the conservation law on both StepN
// regimes, across protocols, seeds and batch sizes.
func TestStepNConservesPopulation(t *testing.T) {
	protos := []*protocol.Protocol{epidemic(t), pointerMachine(t)}
	for _, p := range protos {
		for _, threshold := range []float64{0, 0.25, 2} {
			for seed := int64(1); seed <= 3; seed++ {
				c, err := p.InitialConfig(3, 17)
				if err != nil {
					t.Fatal(err)
				}
				s := NewBatchRandomPair(p, NewRand(seed))
				s.skipThreshold = threshold
				var eff int64
				for i := 0; i < 20; i++ {
					e := s.StepN(c, 250)
					if e < 0 || e > 250 {
						t.Fatalf("effective count %d out of range", e)
					}
					eff += e
				}
				if c.Size() != 20 {
					t.Fatalf("%s threshold=%v seed=%d: population size %d, want 20",
						p.Name, threshold, seed, c.Size())
				}
				for i := 0; i < c.Len(); i++ {
					if c.Count(i) < 0 {
						t.Fatalf("negative count at state %d", i)
					}
				}
				_ = eff
			}
		}
	}
}

// TestStepNDeadConfigurationSkipsInstantly: with no reactive pair enabled,
// the whole batch is guaranteed-null and must not consume randomness or
// change anything.
func TestStepNDeadConfiguration(t *testing.T) {
	b := protocol.NewBuilder("inert")
	b.Input("a")
	b.Transition("b", "b", "a", "a")
	b.Accepting("a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(6)
	s := NewBatchRandomPair(p, NewRand(9))
	if eff := s.StepN(c, 1_000_000_000); eff != 0 {
		t.Fatalf("dead configuration reported %d effective steps", eff)
	}
	if c.Count(p.StateIndex("a")) != 6 {
		t.Fatalf("dead configuration changed: %v", c.Format(p.States))
	}
}

// TestStepNSelfPairNeedsTwoAgents mirrors the RandomPair test on the skip
// path: a self-pair transition must not fire with one agent in the state.
func TestStepNSelfPairNeedsTwoAgents(t *testing.T) {
	b := protocol.NewBuilder("pairup")
	b.Input("a")
	b.Transition("a", "a", "b", "b")
	b.Accepting("b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := p.NewConfig()
	c.Add(p.StateIndex("a"), 1)
	c.Add(p.StateIndex("b"), 1)
	s := NewBatchRandomPair(p, NewRand(2))
	s.skipThreshold = 2 // force the skip path
	if eff := s.StepN(c, 100_000); eff != 0 {
		t.Fatalf("fired a self-pair transition with one agent: %d effective", eff)
	}
}

// TestBatchSchedulerReattaches: stepping a second configuration rebuilds
// the index instead of reusing the stale one.
func TestBatchSchedulerReattaches(t *testing.T) {
	p := epidemic(t)
	s := NewBatchRandomPair(p, NewRand(3))
	c1, _ := p.InitialConfig(1, 9)
	s.StepN(c1, 50)
	c2, _ := p.InitialConfig(5, 5)
	s.StepN(c2, 50)
	if c2.Size() != 10 {
		t.Fatalf("second configuration corrupted: size %d", c2.Size())
	}
	// Drive c2 to quiescence; the index must stay consistent throughout.
	for i := 0; i < 100 && c2.Count(p.StateIndex("I")) != 10; i++ {
		s.StepN(c2, 1000)
	}
	if c2.Count(p.StateIndex("I")) != 10 {
		t.Fatalf("epidemic did not converge on reattached config: %v", c2.Format(p.States))
	}
}

func BenchmarkFenwickFind(b *testing.B) {
	counts := make([]int64, 1024)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	f := newFenwick(counts)
	rng := rand.New(rand.NewSource(1))
	var total int64
	for _, c := range counts {
		total += c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.find(rng.Int63n(total))
	}
}

// TestQuiescentMatchesAnyEnabled is the property test of the O(1)
// quiescence answer: on random protocols and configurations, and after
// every StepN chunk of a run from them, Quiescent() equals
// !p.AnyEnabled(c), both from the reactive weights and, without them
// (noSkip), from the transition scan.
func TestQuiescentMatchesAnyEnabled(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	quiescent := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(5)
		p := &protocol.Protocol{
			Name:      "random",
			States:    make([]string, n),
			Input:     []int{0},
			Accepting: make([]bool, n),
		}
		for i := range p.States {
			p.States[i] = fmt.Sprintf("s%d", i)
		}
		for k := rng.Intn(8); k > 0; k-- {
			tr := protocol.Transition{
				Q: int32(rng.Intn(n)), R: int32(rng.Intn(n)),
				Q2: int32(rng.Intn(n)), R2: int32(rng.Intn(n)),
			}
			if rng.Intn(3) == 0 {
				tr.Q2, tr.R2 = tr.Q, tr.R // silent
			}
			p.Transitions = append(p.Transitions, tr)
		}
		c := p.NewConfig()
		for i := 0; i < n; i++ {
			c.Add(i, int64(rng.Intn(3)))
		}
		if c.Size() < 2 {
			c.Add(rng.Intn(n), 2-c.Size())
		}
		for _, noSkip := range []bool{false, true} {
			s := newBatchRandomPair(p, NewRand(int64(trial)))
			if s.Quiescent() {
				t.Fatal("Quiescent with no configuration attached")
			}
			s.noSkip = s.noSkip || noSkip
			cc := c.Clone()
			s.attach(cc)
			for chunk := 0; chunk < 5; chunk++ {
				got, want := s.Quiescent(), !p.AnyEnabled(cc)
				if got != want {
					t.Fatalf("trial %d (noSkip %v), chunk %d: Quiescent() = %v, !AnyEnabled = %v on %v",
						trial, noSkip, chunk, got, want, cc)
				}
				if got {
					quiescent++
				}
				s.StepN(cc, int64(1+rng.Intn(20)))
			}
		}
	}
	if quiescent == 0 {
		t.Fatal("no quiescent configuration was generated")
	}
}
