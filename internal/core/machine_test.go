package core

import (
	"os"
	"testing"

	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
)

// TestTheorem3ExactN1 model-checks the full pipeline for n = 1: the
// construction's population program, compiled to a population machine,
// decides x ≥ k(1) = 2 — for every placement of the agents into the
// registers, every fair run stabilises to the correct output. This is an
// exact, exhaustive verification of Theorem 3 at n = 1 (and of Lemma 4's
// trichotomy, since all configuration classes occur among the placements).
func TestTheorem3ExactN1(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	c := mustNew(t, 1)
	machine, err := compile.Compile(c.Program)
	if err != nil {
		t.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	// m = 6 explores ~570k machine states in a few seconds; set REPRO_WIDE
	// for even larger sweeps.
	maxM := int64(6)
	if os.Getenv("REPRO_WIDE") != "" {
		maxM = 8
	}
	for m := int64(1); m <= maxM; m++ {
		want := m >= 2
		var initial []*popmachine.Config
		multiset.Enumerate(len(machine.Registers), m, func(regs *multiset.Multiset) {
			cfg, err := machine.InitialConfig(regs)
			if err != nil {
				t.Fatal(err)
			}
			initial = append(initial, cfg)
		})
		res, err := explore.ExploreParallel[*popmachine.Config](sys, initial, explore.Options{MaxStates: 6_000_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !res.StabilisesTo(want) {
			t.Fatalf("m=%d: outcomes %v, want all %v (%d reachable states, %d bottom SCCs)",
				m, res.Outcomes, want, res.NumStates, res.NumBottomSCCs)
		}
		t.Logf("m=%d: %d reachable machine states, %d bottom SCC(s), all stabilise to %v",
			m, res.NumStates, res.NumBottomSCCs, want)
	}
}

// TestTheorem3ExactN2Reject model-checks the n = 2 construction's reject
// side exhaustively: for every placement of m agents (m ≪ k = 10) into the
// nine registers, every fair run of the compiled machine stabilises to
// false. The n = 2 state spaces grow fast (m = 3 already reaches ~13.7M
// machine states), so the default covers m ≤ 2 and REPRO_WIDE widens to 3.
func TestTheorem3ExactN2Reject(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	c := mustNew(t, 2)
	machine, err := compile.Compile(c.Program)
	if err != nil {
		t.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	maxM := int64(2)
	if os.Getenv("REPRO_WIDE") != "" {
		maxM = 3
	}
	for m := int64(1); m <= maxM; m++ {
		var initial []*popmachine.Config
		multiset.Enumerate(len(machine.Registers), m, func(regs *multiset.Multiset) {
			cfg, err := machine.InitialConfig(regs)
			if err != nil {
				t.Fatal(err)
			}
			initial = append(initial, cfg)
		})
		res, err := explore.ExploreParallel[*popmachine.Config](sys, initial,
			explore.Options{MaxStates: 20_000_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !res.StabilisesTo(false) {
			t.Fatalf("m=%d: outcomes %v, want all false", m, res.Outcomes)
		}
		t.Logf("m=%d: %d reachable machine states, all reject", m, res.NumStates)
	}
}

// TestConstructionCompilesAcrossLevels checks the whole pipeline stays
// well-formed as n grows and records the measured machine sizes (the
// Theorem 5 accounting is asserted in internal/experiments).
func TestConstructionCompilesAcrossLevels(t *testing.T) {
	prev := 0
	for n := 1; n <= 6; n++ {
		c := mustNew(t, n)
		machine, err := compile.Compile(c.Program)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if machine.Size() <= prev {
			t.Fatalf("n=%d: machine size %d did not grow", n, machine.Size())
		}
		prev = machine.Size()
	}
}
