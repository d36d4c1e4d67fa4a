package sched

import (
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// epidemic is a one-way infection protocol: I,S ↦ I,I. Every fair run from
// a configuration containing at least one I ends with everyone infected.
func epidemic(t *testing.T) *protocol.Protocol {
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

func TestRandomPairEpidemicConverges(t *testing.T) {
	p := epidemic(t)
	c, err := p.InitialConfig(1, 49)
	if err != nil {
		t.Fatal(err)
	}
	s := newRandomPair(p, NewRand(1))
	iState := p.StateIndex("I")
	for step := 0; step < 200000; step++ {
		s.Step(c)
		if c.Count(iState) == 50 {
			return
		}
	}
	t.Fatalf("epidemic did not converge: %v", c.Format(p.States))
}

func TestRandomPairConservesAgents(t *testing.T) {
	p := epidemic(t)
	c, _ := p.InitialConfig(3, 7)
	s := newRandomPair(p, NewRand(7))
	for i := 0; i < 1000; i++ {
		s.Step(c)
		if c.Size() != 10 {
			t.Fatalf("step %d changed population size to %d", i, c.Size())
		}
	}
}

func TestTransitionFairEpidemicConvergesFast(t *testing.T) {
	p := epidemic(t)
	c, _ := p.InitialConfig(1, 49)
	s := NewTransitionFair(p, NewRand(3))
	iState := p.StateIndex("I")
	steps := 0
	for s.Step(c) {
		steps++
		if steps > 1000 {
			t.Fatal("transition-fair scheduler did not terminate")
		}
	}
	if c.Count(iState) != 50 {
		t.Fatalf("did not infect everyone: %v", c.Format(p.States))
	}
	// Exactly 49 infections are needed, and every step infects someone.
	if steps != 49 {
		t.Fatalf("took %d steps, want 49", steps)
	}
}

func TestTransitionFairReportsStability(t *testing.T) {
	p := epidemic(t)
	c := p.NewConfig()
	c.Add(p.StateIndex("I"), 5)
	s := NewTransitionFair(p, NewRand(5))
	if s.Step(c) {
		t.Fatal("Step changed an already-stable configuration")
	}
}

func TestRandomPairNullInteractions(t *testing.T) {
	// A protocol whose only transition never applies to the population.
	b := protocol.NewBuilder("inert")
	b.Input("a")
	b.Transition("b", "b", "a", "a")
	b.Accepting("a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(4)
	s := newRandomPair(p, NewRand(11))
	for i := 0; i < 100; i++ {
		if s.Step(c) {
			t.Fatal("Step reported a change with no applicable transition")
		}
	}
}

func TestRandomPairSelfPairNeedsTwoAgents(t *testing.T) {
	b := protocol.NewBuilder("pairup")
	b.Input("a")
	b.Transition("a", "a", "b", "b")
	b.Accepting("b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// With 1 'a' and 1 'b', the (a,a) pair can never be drawn.
	c := p.NewConfig()
	c.Add(p.StateIndex("a"), 1)
	c.Add(p.StateIndex("b"), 1)
	s := newRandomPair(p, NewRand(2))
	for i := 0; i < 500; i++ {
		if s.Step(c) {
			t.Fatal("fired a self-pair transition with a single agent in the state")
		}
	}
}

func TestRandomPairUniformChoiceAmongCandidates(t *testing.T) {
	// Two transitions share the initiator/responder pair (a,b); both should
	// fire with roughly equal frequency.
	b := protocol.NewBuilder("choice")
	b.Input("a", "b")
	b.Transition("a", "b", "c", "c")
	b.Transition("a", "b", "d", "d")
	b.Accepting("c")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRand(13)
	countC := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		c, _ := p.InitialConfig(1, 1)
		s := newRandomPair(p, rng)
		for !s.Step(c) {
		}
		if c.Count(p.StateIndex("c")) == 2 {
			countC++
		}
	}
	if countC < trials/3 || countC > 2*trials/3 {
		t.Fatalf("transition choice is skewed: c chosen %d/%d times", countC, trials)
	}
}

func TestSampleAgentDistribution(t *testing.T) {
	c := multiset.FromCounts([]int64{30, 70})
	rng := NewRand(99)
	counts := [2]int{}
	const trials = 10000
	for i := 0; i < trials; i++ {
		counts[sampleAgent(rng, c, 0, false)]++
	}
	// Expect ≈30% / 70% within a generous tolerance.
	if counts[0] < trials/4 || counts[0] > trials*2/5 {
		t.Fatalf("agent sampling skewed: %v", counts)
	}
}

func TestSampleAgentExcludesOne(t *testing.T) {
	// With one agent per kind and the first excluded, the second must always
	// be drawn.
	c := multiset.FromCounts([]int64{1, 1})
	rng := NewRand(4)
	for i := 0; i < 100; i++ {
		if got := sampleAgent(rng, c, 0, true); got != 1 {
			t.Fatalf("sampleAgent returned excluded kind %d", got)
		}
	}
}

func TestRandomCompositionTotalsAndCoverage(t *testing.T) {
	rng := NewRand(21)
	c := multiset.New(4)
	seen := make(map[string]bool)
	for i := 0; i < 500; i++ {
		RandomComposition(rng, c, 5)
		if c.Size() != 5 {
			t.Fatalf("composition has size %d, want 5", c.Size())
		}
		seen[c.Key()] = true
	}
	// All C(8,3) = 56 compositions should appear with 500 draws whp.
	if len(seen) < 40 {
		t.Fatalf("composition sampling covered only %d compositions", len(seen))
	}
}

func TestRandomCompositionZeroTotal(t *testing.T) {
	rng := NewRand(8)
	c := multiset.FromCounts([]int64{3, 1})
	RandomComposition(rng, c, 0)
	if c.Size() != 0 {
		t.Fatalf("RandomComposition(0) left %d agents", c.Size())
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(5), NewRand(5)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("NewRand is not deterministic for equal seeds")
		}
	}
}
