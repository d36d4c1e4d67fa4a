package fluid

import (
	"math"
	"testing"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// NewDeriv compiles p's drift from its own pair index.
func NewDeriv(p *protocol.Protocol) *Deriv {
	return newDeriv(p.NumStates(), protocol.NewStepper(p).Reactive())
}

// NewIntegrator builds the deterministic mean-field ODE tier for p.
func NewIntegrator(p *protocol.Protocol) *Integrator { return newIntegrator(NewDeriv(p)) }

func epidemic(tb testing.TB) *protocol.Protocol {
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

// oneWay is an epidemic that only fires on the ordered pair (A, B): a single
// reaction channel with one candidate, so the mean-field drift is exactly
// the logistic equation dx_A/dτ = x_A·(1 − x_A).
func oneWay(tb testing.TB) *protocol.Protocol {
	tb.Helper()
	b := protocol.NewBuilder("one-way")
	b.Input("A", "B")
	b.Transition("A", "B", "A", "A")
	b.Accepting("A")
	p, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func config(tb testing.TB, p *protocol.Protocol, counts map[string]int64) *multiset.Multiset {
	tb.Helper()
	c := p.NewConfig()
	for name, cnt := range counts {
		c.Set(p.StateIndex(name), cnt)
	}
	return c
}

// TestDerivCompilation pins the compiled drift structure of the epidemic:
// two channels (one per ordered pair), each with the collapsed delta
// {S: −1, I: +1} — the catalyst I appears on both sides and must drop out.
func TestDerivCompilation(t *testing.T) {
	p := epidemic(t)
	d := NewDeriv(p)
	if d.NumStates() != 2 {
		t.Fatalf("NumStates = %d", d.NumStates())
	}
	if len(d.chans) != 2 {
		t.Fatalf("%d channels, want 2", len(d.chans))
	}
	for ci, c := range d.chans {
		if c.nd != 2 {
			t.Fatalf("channel %d: %d deltas, want 2 (catalyst not collapsed?)", ci, c.nd)
		}
	}
	iIdx, sIdx := p.StateIndex("I"), p.StateIndex("S")
	x := make([]float64, 2)
	out := make([]float64, 2)
	x[iIdx], x[sIdx] = 0.25, 0.75
	total := d.Eval(x, out)
	// Both channels fire at x_I·x_S (one candidate each).
	want := 2 * 0.25 * 0.75
	if math.Abs(total-want) > 1e-15 {
		t.Fatalf("total rate %v, want %v", total, want)
	}
	if math.Abs(out[iIdx]-want) > 1e-15 || math.Abs(out[sIdx]+want) > 1e-15 {
		t.Fatalf("drift I=%v S=%v, want ±%v", out[iIdx], out[sIdx], want)
	}
	if math.Abs(out[iIdx]+out[sIdx]) > 1e-15 {
		t.Fatalf("drift does not conserve mass: Σ = %v", out[iIdx]+out[sIdx])
	}
}

// TestDerivIgnoresNegativeAndAbsent pins the rate guards: channels with an
// absent (or transiently negative) reactant contribute neither rate nor
// drift, so excursions can never amplify.
func TestDerivIgnoresNegativeAndAbsent(t *testing.T) {
	p := epidemic(t)
	d := NewDeriv(p)
	out := make([]float64, 2)
	if total := d.Eval([]float64{0, 1}, out); total != 0 {
		t.Fatalf("rate %v with one species absent", total)
	}
	if total := d.Eval([]float64{-1e-9, 1}, out); total != 0 {
		t.Fatalf("rate %v with a negative fraction", total)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("drift[%d] = %v on a dead configuration", i, v)
		}
	}
}

// TestIntegratorLogisticClosedForm checks the ODE tier against the exact
// solution of its own limit: for the one-way epidemic the trajectory is the
// logistic x_A(τ) = x₀·e^τ / (1 + x₀·(e^τ − 1)). At m = 10⁹ the writeback
// quantisation is 10⁻⁹, so the integrator must land within the RK tolerance
// of the closed form.
func TestIntegratorLogisticClosedForm(t *testing.T) {
	p := oneWay(t)
	const m = int64(1_000_000_000)
	const x0 = 0.01
	a0 := int64(x0 * float64(m))
	c := config(t, p, map[string]int64{"A": a0, "B": m - a0})
	ig := NewIntegrator(p)

	const tau = 5.0
	ig.Advance(c, int64(tau*float64(m)), 0)

	e := math.Exp(tau)
	want := x0 * e / (1 + x0*(e-1))
	got := float64(c.Count(p.StateIndex("A"))) / float64(m)
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("x_A(%v) = %v, closed form %v (Δ = %.2e)", tau, got, want, got-want)
	}
	if c.Size() != m {
		t.Fatalf("mass not conserved: %d", c.Size())
	}
}

// TestIntegratorConservation drives the ODE tier over the epidemic from
// many starts and checks the two structural invariants after every chunk:
// counts sum to exactly m and none is negative.
func TestIntegratorConservation(t *testing.T) {
	p := epidemic(t)
	for _, m := range []int64{100, 10_000, 1_000_000} {
		for _, i0 := range []int64{1, m / 3, m - 1} {
			ig := NewIntegrator(p)
			c := config(t, p, map[string]int64{"I": i0, "S": m - i0})
			for chunk := 0; chunk < 8; chunk++ {
				ig.Advance(c, m, 0)
				if c.Size() != m {
					t.Fatalf("m=%d i0=%d chunk %d: size %d", m, i0, chunk, c.Size())
				}
				for s := 0; s < c.Len(); s++ {
					if c.Count(s) < 0 {
						t.Fatalf("m=%d i0=%d chunk %d: count[%d] = %d",
							m, i0, chunk, s, c.Count(s))
					}
				}
			}
		}
	}
}

// TestIntegratorResyncsOnExternalMutation pins the attach contract: mutating
// the configuration between Advance calls discards the stale continuous state.
// Emptying the infected pool makes the epidemic dead; a stale x would still
// carry infected mass and write it back.
func TestIntegratorResyncsOnExternalMutation(t *testing.T) {
	p := epidemic(t)
	const m = int64(100_000)
	c := config(t, p, map[string]int64{"I": m / 2, "S": m / 2})
	ig := NewIntegrator(p)
	ig.Advance(c, m, 0)

	c.Set(p.StateIndex("I"), 0)
	c.Set(p.StateIndex("S"), m)
	ig.Advance(c, m, 0)
	if got := c.Count(p.StateIndex("I")); got != 0 {
		t.Fatalf("dead configuration re-infected: I = %d (stale continuous state)", got)
	}
}

// TestAdvanceFloorStopsAtBoundary pins the regime boundary: with a positive
// floor, Advance must stop early once a species' count enters (0, floor)
// instead of integrating the full span.
func TestAdvanceFloorStopsAtBoundary(t *testing.T) {
	p := epidemic(t)
	const m = int64(1_000_000)
	const floor = int64(1 << 14)
	c := config(t, p, map[string]int64{"I": m / 10, "S": m - m/10})
	ig := NewIntegrator(p)
	n := 40 * m // τ = 40: far past full absorption
	taken, eff := ig.Advance(c, n, floor)
	if taken >= n {
		t.Fatalf("Advance consumed the full span (%d) despite the floor", taken)
	}
	if eff < 0 || eff > taken {
		t.Fatalf("effective %d outside [0, %d]", eff, taken)
	}
	s := c.Count(p.StateIndex("S"))
	if s <= 0 || s >= floor {
		t.Fatalf("stopped with S = %d, want inside (0, %d)", s, floor)
	}
}

// TestPreferredChunk pins the chunk-sizing rule: m/16 with a floor of
// 1,000, the runner's default quiescence period.
func TestPreferredChunk(t *testing.T) {
	ig := NewIntegrator(epidemic(t))
	if got := ig.PreferredChunk(100); got != 1_000 {
		t.Fatalf("small-m chunk %d, want floor 1,000", got)
	}
	if got := ig.PreferredChunk(1 << 16); got != 1<<12 {
		t.Fatalf("m = 2¹⁶ chunk %d, want m/16 = %d", got, 1<<12)
	}
	if got := ig.PreferredChunk(1 << 30); got != (1<<30)/16 {
		t.Fatalf("large-m chunk %d, want %d", got, (1<<30)/16)
	}
}

// TestHybridRegimeRoundTrip drives the full ladder through both hand-offs in
// one run: an epidemic at m = 10⁶ seeds discretely (1 infected agent is far
// below the floor), burns its bulk through the fluid tier, and resolves the
// last susceptibles discretely again — at least two regime switches, both
// chunk counters non-zero, and the exact absorbing state at the end.
func TestHybridRegimeRoundTrip(t *testing.T) {
	defer obs.Disable()
	met := obs.Enable()
	p := epidemic(t)
	const m = int64(1_000_000)
	c := config(t, p, map[string]int64{"I": 1, "S": m - 1})
	h := NewHybrid(p, sched.NewRand(17))
	for i := 0; i < 4096 && p.OutputOf(c) != protocol.OutputTrue; i++ {
		h.StepN(c, m/16)
	}
	if out := p.OutputOf(c); out != protocol.OutputTrue {
		t.Fatalf("epidemic did not absorb: output %v, I = %d", out, c.Count(p.StateIndex("I")))
	}
	if c.Size() != m {
		t.Fatalf("mass not conserved: %d", c.Size())
	}
	sm := met.Sched()
	if sm.FluidChunks.Load() == 0 || sm.DiscreteChunks.Load() == 0 {
		t.Fatalf("ladder did not use both tiers: %d fluid / %d discrete chunks",
			sm.FluidChunks.Load(), sm.DiscreteChunks.Load())
	}
	if sm.RegimeSwitches.Load() < 2 {
		t.Fatalf("%d regime switches, want ≥ 2 (discrete→fluid→discrete)",
			sm.RegimeSwitches.Load())
	}
	t.Logf("round trip: %d fluid / %d discrete chunks, %d switches",
		sm.FluidChunks.Load(), sm.DiscreteChunks.Load(), sm.RegimeSwitches.Load())
}

// TestHybridForcedFluidBeyondBulk pins the overflow rule: at m = 4·10⁹ the
// collision kernel's bulk arithmetic overflows int64 (Λ·m·(m+1) > 2⁶³), so
// the hybrid must stay fluid even though the seed count (1 infected) is far
// below the floor — the only tier that can make progress at that scale.
func TestHybridForcedFluidBeyondBulk(t *testing.T) {
	defer obs.Disable()
	met := obs.Enable()
	p := epidemic(t)
	const m = int64(4_000_000_000)
	h := NewHybrid(p, sched.NewRand(23))
	if h.kernel.BulkAvailable(m) {
		t.Fatalf("bulk arithmetic unexpectedly available at m = %d", m)
	}
	c := config(t, p, map[string]int64{"I": 1, "S": m - 1})
	h.StepN(c, 60*m) // τ = 60 ≈ 2·ln m + slack: full absorption
	if out := p.OutputOf(c); out != protocol.OutputTrue {
		t.Fatalf("output %v, I = %d", out, c.Count(p.StateIndex("I")))
	}
	if c.Size() != m {
		t.Fatalf("mass not conserved: %d", c.Size())
	}
	sm := met.Sched()
	if sm.DiscreteChunks.Load() != 0 {
		t.Fatalf("%d discrete chunks beyond the bulk boundary", sm.DiscreteChunks.Load())
	}
	if sm.FluidChunks.Load() == 0 {
		t.Fatal("no fluid chunks recorded")
	}
}
