package sched

// S2: the collision kernel's round rule, pinned exactly. With the shipped
// knobs (margin 16, critical 512) a category is critical while one of its
// reactants holds fewer than 512 agents, a round lasts as long as every
// reactant's expected drift stays within 1/16 of its count, and the exact
// path takes over when every enabled category is critical or a round
// expects less than one effective interaction. These tests sit populations
// directly on both sides of each line and watch which path fires.

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestCollisionKernelDefaultKnobs pins the shipped knob values the boundary
// tests below are computed from. If these change, every assertion here must
// be revisited.
func TestCollisionKernelDefaultKnobs(t *testing.T) {
	k := newCollisionKernel(epidemicTB(t), &scriptSource{})
	if k.margin != 16 || k.critical != 512 {
		t.Fatalf("default knobs margin=%d critical=%d, want 16/512", k.margin, k.critical)
	}
	if k.roundCap != 1<<20 || exactRunEffective != 32 {
		t.Fatalf("default knobs roundCap=%d exactRunEffective=%d, want %d/32",
			k.roundCap, exactRunEffective, 1<<20)
	}
	if got := k.PreferredChunk(10_000); got != 1_000 {
		t.Fatalf("PreferredChunk(10⁴) = %d, want the 1,000 floor", got)
	}
	if got := k.PreferredChunk(1_000_000); got != 62_500 {
		t.Fatalf("PreferredChunk(10⁶) = %d, want m/16 = 62,500", got)
	}
}

// TestRoundSizeBoundary pins survey and nextRound on the epidemic
// (I,S → I,I both ways), where the drift bound has a closed form: both
// categories weigh i·s, I drifts by +2is and S by −2is per Λ·m·(m−1)
// interactions, so B = ⌊m(m−1)/(32·max(i, s))⌋.
func TestRoundSizeBoundary(t *testing.T) {
	p := epidemicTB(t)
	cases := []struct {
		name      string
		i, s      int64 // epidemic counts
		remaining int64 // interactions left in the StepN call
		tune      func(k *CollisionKernel)
		wantB     int64 // length of the next step
		wantExact bool
		wantDead  bool
	}{
		// Both reactant counts at the critical line: bulk, B from drift.
		{name: "exactly-at-boundary", i: 512, s: 10000, remaining: 1 << 16, wantB: 10512 * 10511 / (32 * 10000)},
		// One agent below: both categories are critical, and the exact
		// path takes ⌈32/p_eff⌉ = 346 interactions.
		{name: "one-below-boundary", i: 511, s: 10000, remaining: 1 << 16, wantB: 346, wantExact: true},
		// Every category critical and effective interactions rare: the
		// exact chunk grows to ⌈32/p_eff⌉ ≈ 1.6·10⁶, capped by the call.
		{name: "critical-sparse", i: 100, s: 10_000_000, remaining: 1 << 22, wantB: 1_600_032, wantExact: true},
		{name: "critical-sparse-capped", i: 100, s: 10_000_000, remaining: 1 << 16, wantB: 1 << 16, wantExact: true},
		// Far above: B = m(m−1)/(32·max(i, s)).
		{name: "well-above", i: 4096, s: 4096, remaining: 1 << 16, wantB: 8192 * 8191 / (32 * 4096)},
		// The interactions left cap a round (40 · p_eff ≈ 9.5 ≥ 1).
		{name: "remaining-clamp", i: 1600, s: 10000, remaining: 40, wantB: 40},
		// A round cut to fewer than 1/p_eff ≈ 4.2 interactions expects less
		// than one effective interaction: the exact path takes it.
		{name: "remaining-below-minround", i: 1600, s: 10000, remaining: 2, wantB: 2, wantExact: true},
		// roundCap clamps from above.
		{name: "roundcap-clamp", i: 8192, s: 8192, remaining: 1 << 16,
			tune: func(k *CollisionKernel) { k.roundCap = 64 }, wantB: 64},
		// A drift bound under one expected effective interaction (here by a
		// margin of 2¹⁶) is sub-unit: exact, for ⌈32/p_eff⌉ = 64.
		{name: "sub-unit-drift", i: 4096, s: 4096, remaining: 1 << 16,
			tune: func(k *CollisionKernel) { k.margin = 1 << 16 }, wantB: 64, wantExact: true},
		// No enabled category: dead, regardless of counts.
		{name: "dead", i: 0, s: 10000, remaining: 1 << 16, wantDead: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := newCollisionKernel(p, &scriptSource{})
			if tc.tune != nil {
				tc.tune(k)
			}
			c, err := p.InitialConfig(tc.i, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			dead := k.survey(c, c.Size())
			if dead != tc.wantDead {
				t.Fatalf("dead = %v, want %v", dead, tc.wantDead)
			}
			if dead {
				return
			}
			B, exact := k.nextRound(c.Size(), tc.remaining)
			if B != tc.wantB || exact != tc.wantExact {
				t.Fatalf("next round: %d interactions, exact=%v; want %d, exact=%v", B, exact, tc.wantB, tc.wantExact)
			}
			if k.wNon+k.wCrit != 2*tc.i*tc.s {
				t.Fatalf("weights %d+%d, want 2is = %d", k.wNon, k.wCrit, 2*tc.i*tc.s)
			}
		})
	}
}

// TestSurveyDriftSkipsCriticalCategories pins the two survey rules the
// epidemic cannot show, on the reversible a,b ↔ c,c. With a = 300 the
// category (a, b) is critical: its weight goes to wCrit and its drift is
// left out, so the bound comes from (c, c) alone. With c = 0, (a, b) is
// non-critical and produces c, a reactant at count 0: B = 0, and the round
// goes to the exact path for ⌈32/p_eff⌉ = 128 interactions.
func TestSurveyDriftSkipsCriticalCategories(t *testing.T) {
	p := densePairs(t)
	cc := p.StateIndex("c")
	k := newCollisionKernel(p, &scriptSource{})
	c, err := p.InitialConfig(300, 5000)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(cc, 5000)
	m := c.Size()
	if k.survey(c, m) {
		t.Fatal("live configuration reported dead")
	}
	if k.wCrit != 300*5000 || k.wNon != 5000*4999 {
		t.Fatalf("weights non=%d crit=%d, want %d/%d", k.wNon, k.wCrit, 5000*4999, 300*5000)
	}
	// (c,c) → (a,b) drifts c by −2w and a, b by +w each; a binds.
	wantB := int64(float64(300) * float64(m) * float64(m-1) / (16 * float64(5000*4999)))
	if k.bound != wantB {
		t.Fatalf("bound %d, want %d (a's drift under (c,c) alone)", k.bound, wantB)
	}
	if B, exact := k.nextRound(m, 1<<20); exact || B != wantB {
		t.Fatalf("next round %d, exact=%v; want bulk of %d", B, exact, wantB)
	}

	c2, err := p.InitialConfig(5000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if k.survey(c2, c2.Size()) || k.bound != 0 {
		t.Fatalf("c = 0 produced by (a, b): bound %d, want 0", k.bound)
	}
	if B, exact := k.nextRound(c2.Size(), 1<<20); !exact || B != 128 {
		t.Fatalf("next round %d, exact=%v; want the exact path for 128", B, exact)
	}
}

// TestStepNCapsRoundAtRemaining: a StepN call with fewer interactions left
// than the drift bound runs one bulk round of exactly what is left, while
// that still expects an effective interaction, and hands a shorter one to
// the exact path.
func TestStepNCapsRoundAtRemaining(t *testing.T) {
	p := epidemicTB(t)
	for _, tc := range []struct {
		n                 int64
		rounds, fallbacks int64
	}{{40, 1, 0}, {8, 1, 0}, {2, 0, 1}} {
		m := obs.Enable()
		k := newCollisionKernel(p, NewRand(3))
		c, err := p.InitialConfig(1600, 10000) // B = 420, p_eff ≈ 0.238
		if err != nil {
			t.Fatal(err)
		}
		k.StepN(c, tc.n)
		sm := m.Sched()
		obs.Disable()
		if sm.BatchRounds.Load() != tc.rounds || sm.BatchFallbacks.Load() != tc.fallbacks || sm.Steps.Load() != tc.n {
			t.Fatalf("StepN(%d): %d rounds, %d fallbacks, %d steps; want %d, %d, %d",
				tc.n, sm.BatchRounds.Load(), sm.BatchFallbacks.Load(), sm.Steps.Load(), tc.rounds, tc.fallbacks, tc.n)
		}
	}
}

// TestRoundSizeDeadWithoutCategories pins the no-category dead path: a
// protocol whose every transition is silent has nothing to fire, ever.
func TestRoundSizeDeadWithoutCategories(t *testing.T) {
	b := protocol.NewBuilder("inert")
	b.Input("a", "b")
	b.Transition("a", "b", "a", "b") // silent
	b.Accepting("a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	k := newCollisionKernel(p, &scriptSource{})
	c, err := p.InitialConfig(600, 600)
	if err != nil {
		t.Fatal(err)
	}
	if dead := k.survey(c, c.Size()); !dead {
		t.Fatal("silent-only protocol not reported dead")
	}
}

// TestStepNUsesBulkAboveBoundary drives StepN on a population comfortably
// above the boundary and requires every firing to come from bulk rounds
// (onFireN), none from the exact fallback (inner.onFire).
func TestStepNUsesBulkAboveBoundary(t *testing.T) {
	p := epidemicTB(t)
	k := newCollisionKernel(p, NewRand(41))
	var bulk, exact int64
	k.onFireN = func(tr protocol.Transition, n int64) { bulk += n }
	k.inner.onFire = func(tr protocol.Transition) { exact++ }
	c, err := p.InitialConfig(5000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	k.StepN(c, 256)
	if exact != 0 {
		t.Fatalf("exact fallback fired %d times above the boundary", exact)
	}
	if bulk == 0 {
		t.Fatal("no bulk firings above the boundary")
	}
}

// TestStepNUsesFallbackBelowBoundary drives StepN just below the boundary
// and requires the exact path to serve every firing. The *susceptible*
// count is 511, so both categories are critical, and infections only
// shrink it, so the run can never cross into bulk territory.
func TestStepNUsesFallbackBelowBoundary(t *testing.T) {
	p := epidemicTB(t)
	k := newCollisionKernel(p, NewRand(43))
	var bulk, exact int64
	k.onFireN = func(tr protocol.Transition, n int64) { bulk += n }
	k.inner.onFire = func(tr protocol.Transition) { exact++ }
	c, err := p.InitialConfig(100000, 511)
	if err != nil {
		t.Fatal(err)
	}
	k.StepN(c, 4096)
	if bulk != 0 {
		t.Fatalf("bulk rounds engaged %d firings below the boundary", bulk)
	}
	if exact == 0 {
		t.Fatal("no exact firings below the boundary")
	}
}

// TestStepNCrossesBoundaryBothWays runs the epidemic from a seed population
// below the boundary: the kernel must start on the exact path (every
// category critical), switch to bulk rounds as the infected count grows
// past 512, and hand back to the exact path as the susceptibles die out.
func TestStepNCrossesBoundaryBothWays(t *testing.T) {
	p := epidemicTB(t)
	k := newCollisionKernel(p, NewRand(47))
	var bulk, exact int64
	k.onFireN = func(tr protocol.Transition, n int64) { bulk += n }
	k.inner.onFire = func(tr protocol.Transition) { exact++ }
	c, err := p.InitialConfig(64, 20000)
	if err != nil {
		t.Fatal(err)
	}
	iState := p.StateIndex("I")
	k.StepN(c, 3_000_000)
	if c.Count(iState) != c.Size() {
		t.Fatalf("epidemic incomplete after 3M interactions: %d/%d infected",
			c.Count(iState), c.Size())
	}
	if exact == 0 || bulk == 0 {
		t.Fatalf("run did not cross the handoff both ways: %d exact, %d bulk firings", exact, bulk)
	}
	// Every infection is one firing, whichever path served it.
	if exact+bulk != 20000 {
		t.Fatalf("firings %d+%d ≠ 20000 infections", exact, bulk)
	}
}

// TestBulkRoundDiscardsNegativeDraws loosens the knobs until bulk rounds
// overshoot (margin 1, critical 1: a round may expect to consume a whole
// count) and checks the guard. Called directly, a round either applies a
// draw that keeps every count non-negative or is discarded with the
// configuration untouched; through StepN, no count goes negative, the
// population is conserved and only applied firings are observed.
func TestBulkRoundDiscardsNegativeDraws(t *testing.T) {
	p := densePairs(t)
	c0, err := p.InitialConfig(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	c0.Set(p.StateIndex("c"), 2)
	k := newCollisionKernel(p, NewRand(1))
	k.margin, k.critical = 1, 1
	if k.survey(c0, c0.Size()) || k.wNon == 0 {
		t.Fatal("forced knobs left no non-critical category")
	}
	var discards, applied int
	for i := 0; i < 200; i++ {
		c := c0.Clone()
		steps, eff, discarded := k.bulkRound(c, c.Size(), 4)
		if discarded {
			discards++
			if !c.Equal(c0) {
				t.Fatalf("discarded round changed the configuration: %v", c)
			}
			continue
		}
		applied++
		for s := 0; s < c.Len(); s++ {
			if c.Count(s) < 0 {
				t.Fatalf("applied round drove state %d negative: %v", s, c)
			}
		}
		if c.Size() != c0.Size() || steps < 1 || steps > 4 || eff > steps {
			t.Fatalf("applied round: %d steps, %d effective, population %d", steps, eff, c.Size())
		}
	}
	if discards == 0 || applied == 0 {
		t.Fatalf("%d rounds discarded, %d applied; want both", discards, applied)
	}

	for seed := int64(1); seed <= 20; seed++ {
		c := c0.Clone()
		k := newCollisionKernel(p, NewRand(seed))
		k.margin, k.critical = 1, 1
		var fired, eff int64
		k.onFireN = func(tr protocol.Transition, n int64) { fired += n }
		k.inner.onFire = func(tr protocol.Transition) { fired++ }
		for i := 0; i < 200; i++ {
			eff += k.StepN(c, 50)
			for s := 0; s < c.Len(); s++ {
				if c.Count(s) < 0 {
					t.Fatalf("seed %d: negative count at state %d: %v", seed, s, c)
				}
			}
			if c.Size() != c0.Size() {
				t.Fatalf("seed %d: population %d, want %d", seed, c.Size(), c0.Size())
			}
		}
		if fired != eff {
			t.Fatalf("seed %d: %d firings observed for %d effective interactions", seed, fired, eff)
		}
	}
}
