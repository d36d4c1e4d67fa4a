package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
)

func TestEqualityConstructionValidates(t *testing.T) {
	for n := 1; n <= 5; n++ {
		c, err := NewEquality(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !c.IsEquality() {
			t.Fatal("IsEquality should report true")
		}
		if err := c.Program.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestEqualitySizeStillLinear(t *testing.T) {
	// The §9 variant must keep the O(n) size: it only adds a constant
	// number of instructions to Main.
	for n := 1; n <= 6; n++ {
		eq, err := NewEquality(n)
		if err != nil {
			t.Fatal(err)
		}
		th := mustNew(t, n)
		if diff := eq.Program.Size() - th.Program.Size(); diff < 1 || diff > 8 {
			t.Fatalf("n=%d: equality adds %d size units, want a small constant", n, diff)
		}
	}
}

func TestEqualityDecideN2(t *testing.T) {
	// n = 2: decides x = 10 exactly — false on both sides of k.
	if testing.Short() {
		t.Skip("slow nondeterministic run")
	}
	c, err := NewEquality(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int64{8, 9, 10, 11, 12, 15} {
		want := m == 10
		res, err := popprog.DecideTotal(c.Program, m, popprog.DecideOptions{
			Seed: 400 + m, Budget: 4_000_000, TruthProb: 0.85, Attempts: 5,
			RestartHint: c.RestartHint(), HintProb: 0.3,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Output != want {
			t.Fatalf("m=%d: decided %v, want %v (restarts %d)", m, res.Output, want, res.Restarts)
		}
	}
}

func TestEqualityExactN1(t *testing.T) {
	// Exhaustive model checking of the compiled n = 1 equality machine:
	// x = 2 — accept exactly m = 2, over every placement.
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	c, err := NewEquality(1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := compile.Compile(c.Program)
	if err != nil {
		t.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	for m := int64(1); m <= 4; m++ {
		want := m == 2
		var initial []*popmachine.Config
		multiset.Enumerate(len(machine.Registers), m, func(regs *multiset.Multiset) {
			cfg, err := machine.InitialConfig(regs)
			if err != nil {
				t.Fatal(err)
			}
			initial = append(initial, cfg)
		})
		res, err := explore.ExploreParallel[*popmachine.Config](sys, initial, explore.Options{MaxStates: 8_000_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !res.StabilisesTo(want) {
			t.Fatalf("m=%d: outcomes %v, want all %v (%d states)",
				m, res.Outcomes, want, res.NumStates)
		}
	}
}

func TestEqualityGoodConfigsSharedWithThreshold(t *testing.T) {
	// The good-configuration synthesis is unchanged; only the final loop
	// differs. Sanity-check the m > k case uses R.
	c, err := NewEquality(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := c.GoodConfig(13)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Count(c.R()) != 3 {
		t.Fatalf("R = %d, want 3", cfg.Count(c.R()))
	}
	if !c.IsProper(cfg, 2) {
		t.Fatal("good config for m > k must be n-proper")
	}
}
