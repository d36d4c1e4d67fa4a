package sched

// The scheduler-equivalence suite: evidence that the batched fast path of
// BatchRandomPair is distributionally identical to the seed per-step
// RandomPair sampler. Two independent instruments:
//
//  1. A statistical harness: both samplers run many trials from identical
//     configurations; the empirical per-transition firing frequencies are
//     compared with a two-sample chi-squared bound.
//
//  2. An exact harness: on tiny populations, every possible outcome of a
//     single scheduling decision is enumerated by driving the real
//     scheduler code under a recorded-RNG shim (a source whose integer
//     draws are scripted, and which records the bound of every draw it
//     serves). This recovers the exact outcome distribution of both
//     samplers as rationals, which must match term by term: the
//     effective-step probability and the conditional next-configuration
//     law.

import (
	"math/big"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// scriptSource replays a fixed script of integer draws and records the
// bound of every draw requested, enumerating the scheduler's decision tree
// instead of sampling it. Float64 (used only by the geometric null-skip)
// returns a pinned value, letting tests select the skip length.
type scriptSource struct {
	script    []int64
	pos       int
	bounds    []int64 // bounds of all draws requested, in order
	exhausted bool    // a draw beyond the script was requested
	u         float64 // value served by Float64
}

func (s *scriptSource) draw(n int64) int64 {
	s.bounds = append(s.bounds, n)
	if s.pos < len(s.script) {
		v := s.script[s.pos]
		s.pos++
		return v
	}
	s.exhausted = true
	return 0
}

func (s *scriptSource) Int63n(n int64) int64 { return s.draw(n) }
func (s *scriptSource) Intn(n int) int       { return int(s.draw(int64(n))) }
func (s *scriptSource) Float64() float64     { return s.u }

// enumerateOutcomes runs fn — one scheduling decision on a clone of c,
// driven by the given script — for every resolvable script, and returns
// the exact probability of each resulting configuration (keyed by
// Multiset.Key). fn receives a fresh clone and a fresh scriptSource each
// time, so scheduler state never leaks between branches.
func enumerateOutcomes(t *testing.T, c *multiset.Multiset,
	fn func(c *multiset.Multiset, src *scriptSource)) map[string]*big.Rat {
	t.Helper()
	dist := make(map[string]*big.Rat)
	var rec func(script []int64)
	rec = func(script []int64) {
		clone := c.Clone()
		src := &scriptSource{script: script, u: 1 - 1e-12}
		fn(clone, src)
		if src.exhausted {
			// The decision needed another draw: branch on all its values.
			bound := src.bounds[len(script)]
			if bound <= 0 {
				t.Fatalf("scheduler requested a draw with bound %d", bound)
			}
			if bound > 1<<12 {
				t.Fatalf("decision tree too wide to enumerate: bound %d", bound)
			}
			for v := int64(0); v < bound; v++ {
				rec(append(append([]int64(nil), script...), v))
			}
			return
		}
		if len(src.bounds) != len(script) {
			t.Fatalf("script of %d draws only consumed %d", len(script), len(src.bounds))
		}
		prob := big.NewRat(1, 1)
		for _, b := range src.bounds {
			prob.Mul(prob, big.NewRat(1, b))
		}
		key := clone.Key()
		if acc, ok := dist[key]; ok {
			acc.Add(acc, prob)
		} else {
			dist[key] = prob
		}
	}
	rec(nil)
	// Sanity: a full probability distribution.
	total := big.NewRat(0, 1)
	for _, p := range dist {
		total.Add(total, p)
	}
	if total.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("enumerated outcome mass is %v, want 1", total)
	}
	return dist
}

// conditionalOnChange restricts an outcome distribution to configurations
// different from c and renormalises, returning the conditional law of the
// next configuration given an effective step, plus the effective mass.
func conditionalOnChange(c *multiset.Multiset, dist map[string]*big.Rat) (map[string]*big.Rat, *big.Rat) {
	mass := big.NewRat(0, 1)
	cond := make(map[string]*big.Rat)
	for key, p := range dist {
		if key == c.Key() {
			continue
		}
		cond[key] = new(big.Rat).Set(p)
		mass.Add(mass, p)
	}
	for _, p := range cond {
		p.Quo(p, mass)
	}
	return cond, mass
}

func ratDistsEqual(a, b map[string]*big.Rat) bool {
	if len(a) != len(b) {
		return false
	}
	for k, pa := range a {
		pb, ok := b[k]
		if !ok || pa.Cmp(pb) != 0 {
			return false
		}
	}
	return true
}

// equivalenceProtocols is the corpus for the exact harness. It includes a
// pair key carrying both a silent and a non-silent candidate (exercising
// the #candidates weighting of the skip path), a self-pair transition, and
// multi-transition keys.
func equivalenceProtocols(t *testing.T) []struct {
	p    *protocol.Protocol
	init []int64
} {
	t.Helper()
	mixed := protocol.NewBuilder("mixed-key")
	mixed.Input("a", "b")
	mixed.Transition("a", "b", "c", "c") // non-silent
	mixed.Transition("a", "b", "a", "b") // silent candidate on the same key
	mixed.Transition("a", "a", "b", "a") // non-silent self-pair
	mixed.Transition("c", "b", "c", "c")
	mixed.Accepting("c")
	mixedP, err := mixed.Build()
	if err != nil {
		t.Fatal(err)
	}

	maj := protocol.NewBuilder("majority")
	maj.Input("X", "Y")
	maj.Transition("X", "Y", "x", "x")
	maj.Transition("X", "y", "X", "x")
	maj.Transition("Y", "x", "Y", "y")
	maj.Transition("x", "y", "x", "x")
	maj.Accepting("X", "x")
	majP, err := maj.Build()
	if err != nil {
		t.Fatal(err)
	}

	return []struct {
		p    *protocol.Protocol
		init []int64
	}{
		{epidemic(t), []int64{1, 3}},
		{epidemic(t), []int64{2, 2}},
		{mixedP, []int64{2, 2}},
		{mixedP, []int64{3, 1}},
		{majP, []int64{2, 1}},
		{majP, []int64{2, 2}},
	}
}

// TestExactOutcomeDistributionsMatch enumerates, for each tiny population,
// the complete single-decision outcome distribution of the per-step sampler
// and the effective-step law of the batched skip path, and requires exact
// rational agreement of (a) the effective-step probability and (b) the
// conditional next-configuration distribution.
func TestExactOutcomeDistributionsMatch(t *testing.T) {
	for _, tc := range equivalenceProtocols(t) {
		c, err := tc.p.InitialConfig(tc.init...)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.p.Name + "/" + c.String()
		t.Run(name, func(t *testing.T) {
			// Per-step law: enumerate RandomPair.Step (3 integer draws max).
			perStep := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				newRandomPair(tc.p, src).Step(cl)
			})
			perStepCond, perStepMass := conditionalOnChange(c, perStep)

			// The Fenwick per-step path must induce the identical tree.
			fenStep := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				newBatchRandomPair(tc.p, src).Step(cl)
			})
			if !ratDistsEqual(perStep, fenStep) {
				t.Fatalf("Fenwick Step law differs from RandomPair law:\n%v\nvs\n%v", perStep, fenStep)
			}

			// The collision kernel's Step delegates to the same exact
			// sampler, so its single-decision law must match too.
			collStep := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				newCollisionKernel(tc.p, src).Step(cl)
			})
			if !ratDistsEqual(perStep, collStep) {
				t.Fatalf("CollisionKernel Step law differs from RandomPair law:\n%v\nvs\n%v", perStep, collStep)
			}

			// Batched effective-step probability: totalW / (Λ·m·(m−1)).
			probe := newBatchRandomPair(tc.p, &scriptSource{})
			probe.attach(c)
			m := c.Size()
			batchMass := big.NewRat(probe.totalW, probe.lambda*m*(m-1))
			if batchMass.Cmp(perStepMass) != 0 {
				t.Fatalf("effective-step probability: batch %v, per-step %v", batchMass, perStepMass)
			}
			if perStepMass.Sign() == 0 {
				return // nothing can fire; conditional law is vacuous
			}

			// Batched conditional law: StepN(c, 1) with the geometric skip
			// pinned to 0 fires exactly one effective step, whose single
			// integer draw ranges over the weighted (pair, transition)
			// choices.
			batchCond := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				s := newBatchRandomPair(tc.p, src)
				s.skipThreshold = 2 // always take the skip path
				s.StepN(cl, 1)
			})
			if !ratDistsEqual(perStepCond, batchCond) {
				t.Fatalf("conditional next-config law differs:\nper-step %v\nbatched  %v",
					perStepCond, batchCond)
			}

			// CollisionKernel on a tiny population: every category of this
			// corpus is critical (counts ≪ 512), so StepN must hand off to
			// the exact skip path and reproduce the identical conditional
			// law — the boundary side of the batch/exact handoff,
			// enumerated exactly.
			collCond := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				k := newCollisionKernel(tc.p, src)
				k.inner.skipThreshold = 2 // fallback takes the skip path
				k.StepN(cl, 1)
			})
			if !ratDistsEqual(perStepCond, collCond) {
				t.Fatalf("CollisionKernel fallback law differs:\nper-step %v\nkernel   %v",
					perStepCond, collCond)
			}
		})
	}
}

// firingCounts aggregates non-silent transition firings over repeated
// short runs from the same initial configuration.
func firingCounts(t *testing.T, p *protocol.Protocol, c0 *multiset.Multiset,
	trials, stepsPerTrial int, mk func(seed int64) BatchScheduler, batched bool) map[protocol.Transition]int64 {
	t.Helper()
	counts := make(map[protocol.Transition]int64)
	for trial := 0; trial < trials; trial++ {
		s := mk(int64(trial))
		switch sch := s.(type) {
		case *BatchRandomPair:
			sch.onFire = func(tr protocol.Transition) { counts[tr]++ }
		case *CollisionKernel:
			sch.onFireN = func(tr protocol.Transition, n int64) { counts[tr] += n }
			sch.inner.onFire = func(tr protocol.Transition) { counts[tr]++ }
		default:
			t.Fatalf("unexpected scheduler type %T", s)
		}
		c := c0.Clone()
		if batched {
			s.StepN(c, int64(stepsPerTrial))
		} else {
			for i := 0; i < stepsPerTrial; i++ {
				s.Step(c)
			}
		}
	}
	return counts
}

// chiSquared computes the two-sample homogeneity statistic over the union
// of observed categories plus the implicit null-interaction category.
func chiSquared(a, b map[protocol.Transition]int64, totalSteps int64) (stat float64, df int) {
	keys := make(map[protocol.Transition]bool)
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	var sumA, sumB int64
	for k := range keys {
		sumA += a[k]
		sumB += b[k]
	}
	add := func(obsA, obsB int64) {
		e := float64(obsA+obsB) / 2
		if e == 0 {
			return
		}
		da := float64(obsA) - e
		db := float64(obsB) - e
		stat += da * da / e
		stat += db * db / e
		df++
	}
	for k := range keys {
		add(a[k], b[k])
	}
	add(totalSteps-sumA, totalSteps-sumB) // null interactions
	df--                                  // categories minus one
	return stat, df
}

// TestChiSquaredFiringFrequencies runs the statistical half of the
// equivalence suite: per-step RandomPair-equivalent stepping vs the batched
// skip path, from identical configurations with disjoint seed sets, on a
// reactive protocol and on a null-dominated converted-machine-like
// protocol. The chi-squared statistic must stay below a generous critical
// value (α ≈ 0.001 for the df in play is < 30; the bound is 40).
func TestChiSquaredFiringFrequencies(t *testing.T) {
	cases := []struct {
		name          string
		p             *protocol.Protocol
		init          []int64
		trials, steps int
	}{
		{"majority", majorityForEquiv(t), []int64{16, 14}, 150, 60},
		{"pointer-null-dominated", pointerMachine(t), []int64{1, 24}, 150, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c0, err := tc.p.InitialConfig(tc.init...)
			if err != nil {
				t.Fatal(err)
			}
			perStep := firingCounts(t, tc.p, c0, tc.trials, tc.steps, func(seed int64) BatchScheduler {
				s := NewBatchRandomPair(tc.p, NewRand(seed))
				s.skipThreshold = 0 // per-step path only — the seed sampler's law
				return s
			}, false)
			batched := firingCounts(t, tc.p, c0, tc.trials, tc.steps, func(seed int64) BatchScheduler {
				s := NewBatchRandomPair(tc.p, NewRand(1_000_000+seed))
				s.skipThreshold = 2 // skip path whenever any pair is reactive
				return s
			}, true)
			total := int64(tc.trials) * int64(tc.steps)
			stat, df := chiSquared(perStep, batched, total)
			if df < 1 {
				t.Fatalf("degenerate chi-squared: df=%d counts %v vs %v", df, perStep, batched)
			}
			if stat > 40 {
				t.Fatalf("chi-squared %0.1f (df=%d) exceeds bound 40:\nper-step %v\nbatched  %v",
					stat, df, perStep, batched)
			}
		})
	}
}

// TestChiSquaredCollisionFiringFrequencies compares transition firing
// frequencies between the exact per-step sampler and the collision kernel
// with knobs forced so bulk tau-leap rounds actually engage (and, in the
// epidemic case, so runs cross the fallback/bulk handoff boundary both
// ways). Rounds are kept small relative to the population so tau-leap's
// frozen-count bias stays well inside sampling noise; the same generous
// chi-squared bound as the skip-path test applies.
func TestChiSquaredCollisionFiringFrequencies(t *testing.T) {
	cases := []struct {
		name          string
		p             *protocol.Protocol
		init          []int64
		trials, steps int
	}{
		// Effective-dominated: bulk rounds engage immediately.
		{"majority-bulk", majorityForEquiv(t), []int64{640, 560}, 100, 240},
		// Starts below the safety margin (I = 4): the kernel must hand the
		// early steps to the exact path, then switch to bulk as the
		// infection spreads, and fall back again as susceptibles run out.
		{"epidemic-handoff", epidemicTB(t), []int64{4, 396}, 60, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c0, err := tc.p.InitialConfig(tc.init...)
			if err != nil {
				t.Fatal(err)
			}
			perStep := firingCounts(t, tc.p, c0, tc.trials, tc.steps, func(seed int64) BatchScheduler {
				s := NewBatchRandomPair(tc.p, NewRand(seed))
				s.skipThreshold = 0 // per-step path only — the seed sampler's law
				return s
			}, false)
			bulk := firingCounts(t, tc.p, c0, tc.trials, tc.steps, func(seed int64) BatchScheduler {
				k := NewCollisionKernel(tc.p, NewRand(1_000_000+seed))
				k.margin = 8
				k.critical = 8
				k.roundCap = 16
				return k
			}, true)
			total := int64(tc.trials) * int64(tc.steps)
			stat, df := chiSquared(perStep, bulk, total)
			if df < 1 {
				t.Fatalf("degenerate chi-squared: df=%d counts %v vs %v", df, perStep, bulk)
			}
			if stat > 40 {
				t.Fatalf("chi-squared %0.1f (df=%d) exceeds bound 40:\nper-step %v\nbulk     %v",
					stat, df, perStep, bulk)
			}
		})
	}
}

func majorityForEquiv(t *testing.T) *protocol.Protocol {
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
