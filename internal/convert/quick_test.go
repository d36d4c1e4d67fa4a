package convert

import (
	"testing"

	"repro/internal/multiset"
	"repro/internal/sched"
)

// Property: every transition of the converted protocol conserves the agent
// count, and AgentsPerFamily always partitions the population.
func TestQuickConversionInvariants(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	p := res.Protocol
	rng := sched.NewRand(41)
	for trial := 0; trial < 200; trial++ {
		cfg := multiset.New(p.NumStates())
		sched.RandomComposition(rng, cfg, int64(3+rng.Intn(20)))
		counts := res.AgentsPerFamily(cfg)
		var sum int64
		for _, v := range counts {
			sum += v
		}
		if sum != cfg.Size() {
			t.Fatalf("family counts %v do not partition %d agents", counts, cfg.Size())
		}
		// Step a few times under the fair scheduler; conservation of agents
		// must hold throughout.
		s := sched.NewTransitionFair(p, rng)
		before := cfg.Size()
		for i := 0; i < 20; i++ {
			if !s.Step(cfg) {
				break
			}
			if cfg.Size() != before {
				t.Fatalf("transition changed the population: %d → %d", before, cfg.Size())
			}
		}
	}
}

// Property (Lemma 15's potential argument): the tuple
// (register agents, agents in X_|F|, …, agents in X_1) — families in
// reverse elect order — never decreases lexicographically. Instruction and
// broadcast transitions leave family counts unchanged; every ⟨elect⟩
// transition pushes an agent down the chain (X_i → X_{i+1}) or, at IP,
// releases one into the registers — both lexicographic increases. This is
// exactly why the election terminates.
func TestQuickElectLexicographicPotential(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	p := res.Protocol
	m := int64(res.NumPointers) + 4

	potential := func(cfg *multiset.Multiset) []int64 {
		fam := res.AgentsPerFamily(cfg)
		// fam is indexed by machine pointer index, with registers last.
		// Reconstruct the elect order: res.Families tells us families but
		// not their chain order; use PointerOrder.
		order := res.PointerOrder()
		out := []int64{fam[len(fam)-1]} // register agents first
		for i := len(order) - 1; i >= 0; i-- {
			out = append(out, fam[order[i]])
		}
		return out
	}
	lexCmp := func(a, b []int64) int {
		for i := range a {
			if a[i] != b[i] {
				if a[i] < b[i] {
					return -1
				}
				return 1
			}
		}
		return 0
	}

	for seed := int64(0); seed < 20; seed++ {
		cfg, err := p.InitialConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.NewBatchRandomPair(p, sched.NewRand(seed))
		prev := potential(cfg)
		for i := 0; i < 3000; i++ {
			s.Step(cfg)
			cur := potential(cfg)
			if lexCmp(cur, prev) < 0 {
				t.Fatalf("seed %d step %d: potential decreased %v → %v", seed, i, prev, cur)
			}
			prev = cur
		}
	}
}
