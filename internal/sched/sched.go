// Package sched provides schedulers for population protocols.
//
// The paper's execution model (§1, §3) picks two agents uniformly at random
// each step; correctness is stated for all *fair* runs, and runs of the
// uniform random scheduler are fair with probability 1. Because fairness is
// the only requirement, any left-total scheduler that gives every enabled
// transition persistent positive probability also produces fair runs almost
// surely. This package implements both:
//
//   - BatchRandomPair: the paper's uniform random pairwise scheduler, drawn
//     from per-state counts. Interaction counts under this scheduler are
//     meaningful (parallel time = steps/m).
//   - TransitionFair: picks a uniformly random *enabled* transition. Runs
//     are fair a.s. but steps do not model real interactions; this scheduler
//     exists because converted protocols have a single instruction-pointer
//     agent, making random pairing take Θ(m²) interactions per useful step.
package sched

import (
	"math/rand"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Scheduler advances a configuration by one scheduling decision.
type Scheduler interface {
	// Step performs one scheduling decision on c, mutating it in place.
	// It returns true if the configuration changed. A random-pair step that
	// selects a non-interacting pair changes nothing and returns false; a
	// TransitionFair step returns false only when no non-silent transition
	// is enabled (the configuration is then stable forever).
	Step(c *multiset.Multiset) bool
}

// source is the randomness a scheduler consumes. *rand.Rand satisfies it;
// the equivalence tests substitute scripted sources to enumerate every
// possible outcome of a single scheduling decision exactly.
type source interface {
	Int63n(n int64) int64
	Intn(n int) int
	Float64() float64
}

// NewRand returns a deterministic seeded PRNG. All experiments thread their
// randomness through explicit *rand.Rand values so runs are reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// TransitionFair picks a uniformly random enabled non-silent transition each
// step. It realises global fairness directly: every enabled transition has
// probability ≥ 1/|δ| of firing, so every fair-run property holds a.s.
// Enabled transitions are found through a pair index keyed on the occupied
// states, so each step costs O(support²) rather than O(|δ|).
type TransitionFair struct {
	p       *protocol.Protocol
	rng     *rand.Rand
	stepper *protocol.Stepper
	met     *obs.SchedMetrics
}

var _ Scheduler = (*TransitionFair)(nil)

// NewTransitionFair builds a TransitionFair scheduler for protocol p.
func NewTransitionFair(p *protocol.Protocol, rng *rand.Rand) *TransitionFair {
	return &TransitionFair{p: p, rng: rng, stepper: protocol.NewStepper(p), met: obs.Sched()}
}

// Step implements Scheduler.
func (s *TransitionFair) Step(c *multiset.Multiset) bool {
	if s.met != nil {
		s.met.Steps.Inc()
	}
	enabled := s.stepper.EnabledTransitions(c)
	if len(enabled) == 0 {
		return false
	}
	s.p.Apply(c, enabled[s.rng.Intn(len(enabled))])
	if s.met != nil {
		s.met.Effective.Inc()
	}
	return true
}

// RandomComposition fills c with a uniformly random composition of total
// over all kinds (used to model the nondeterministic restart instruction,
// which picks any configuration with the same register sum; every target is
// hit with positive probability, which suffices for fairness).
func RandomComposition(rng *rand.Rand, c *multiset.Multiset, total int64) {
	n := c.Len()
	for i := 0; i < n; i++ {
		c.Set(i, 0)
	}
	if n == 0 {
		if total != 0 {
			panic("sched: cannot place agents in a zero-kind multiset")
		}
		return
	}
	// Stars and bars with uniform bar positions would need sorting; instead
	// sample each unit's bucket independently. This is uniform over
	// *placements*, not compositions, but every composition has positive
	// probability, which is what restart-fairness requires.
	for u := int64(0); u < total; u++ {
		c.Add(rng.Intn(n), 1)
	}
}
