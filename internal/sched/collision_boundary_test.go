package sched

// S2: the collision kernel's bulk/fallback handoff boundary, pinned exactly.
// With the shipped knobs (margin 16, minRound 32) a bulk round engages iff
// the smallest count consumed by any enabled category is at least
// margin·minRound = 512; these tests sit populations directly on both sides
// of that line and watch which path fires.

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// TestCollisionKernelDefaultKnobs pins the shipped knob values the boundary
// tests below are computed from. If these change, the margin·minRound = 512
// boundary moves and every assertion here must be revisited.
func TestCollisionKernelDefaultKnobs(t *testing.T) {
	k := newCollisionKernel(epidemicTB(t), &scriptSource{})
	if k.margin != 16 || k.minRound != 32 {
		t.Fatalf("default knobs margin=%d minRound=%d, want 16/32", k.margin, k.minRound)
	}
	if k.roundCap != 1<<20 || k.fallbackChunk != 1<<12 {
		t.Fatalf("default knobs roundCap=%d fallbackChunk=%d, want %d/%d",
			k.roundCap, k.fallbackChunk, 1<<20, 1<<12)
	}
}

func TestRoundSizeBoundary(t *testing.T) {
	p := epidemicTB(t)
	cases := []struct {
		name      string
		i, s      int64 // epidemic counts; minCount = min(i, s)
		remaining int64 // interactions left in the StepN call
		tune      func(k *CollisionKernel)
		wantB     int64
		wantDead  bool
	}{
		// Species count exactly at margin·minRound: bulk engages with the
		// smallest legal round.
		{name: "exactly-at-boundary", i: 512, s: 10000, remaining: 1 << 16, wantB: 32},
		// One agent below: B = 511/16 = 31 < minRound, fall back.
		{name: "one-below-boundary", i: 511, s: 10000, remaining: 1 << 16, wantB: 0},
		// Far above: B = minCount/margin.
		{name: "well-above", i: 4096, s: 4096, remaining: 1 << 16, wantB: 256},
		// remaining clamps B only after the minRound check.
		{name: "remaining-clamp", i: 1600, s: 10000, remaining: 40, wantB: 40},
		// A tiny remaining budget cannot force a sub-minRound bulk round:
		// the kernel still reports a legal B and StepN shrinks it.
		{name: "remaining-below-minround", i: 1600, s: 10000, remaining: 8, wantB: 8},
		// roundCap clamps from above.
		{name: "roundcap-clamp", i: 8192, s: 8192, remaining: 1 << 16,
			tune: func(k *CollisionKernel) { k.roundCap = 64 }, wantB: 64},
		// No enabled category: dead, regardless of counts.
		{name: "dead", i: 0, s: 10000, remaining: 1 << 16, wantB: 0, wantDead: true},
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
			B, totalW, dead := k.roundSize(c, c.Size())
			// StepN caps each round at the interactions left in the call;
			// TestStepNCapsRoundAtRemaining pins that through StepN.
			B = min(B, tc.remaining)
			if dead != tc.wantDead {
				t.Fatalf("dead = %v, want %v", dead, tc.wantDead)
			}
			if B != tc.wantB {
				t.Fatalf("B = %d, want %d", B, tc.wantB)
			}
			if !tc.wantDead && totalW <= 0 {
				t.Fatalf("totalW = %d, want > 0 while categories are enabled", totalW)
			}
		})
	}
}

// TestStepNCapsRoundAtRemaining: a StepN call with fewer interactions left
// than roundSize's round runs one bulk round of exactly what is left, even
// below minRound, instead of falling back.
func TestStepNCapsRoundAtRemaining(t *testing.T) {
	p := epidemicTB(t)
	for _, n := range []int64{40, 8} {
		m := obs.Enable()
		k := newCollisionKernel(p, NewRand(3))
		c, err := p.InitialConfig(1600, 10000) // roundSize: B = 100
		if err != nil {
			t.Fatal(err)
		}
		k.StepN(c, n)
		snap := m.Snapshot().Sched
		obs.Disable()
		if snap.BatchRounds != 1 || snap.BatchFallbacks != 0 || snap.Steps != n {
			t.Fatalf("StepN(%d): %d rounds, %d fallbacks, %d steps; want one bulk round of %d",
				n, snap.BatchRounds, snap.BatchFallbacks, snap.Steps, n)
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
	if _, _, dead := k.roundSize(c, c.Size()); !dead {
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
// and requires the exact path to serve every firing. The *susceptible* count
// is the minimum (511) and infections only shrink it, so the run can never
// cross into bulk territory.
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
// below the boundary: the kernel must start on the exact path, switch to
// bulk as the infected count grows past 512, and hand back to the exact path
// as the susceptibles die out.
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
