package fluid

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// Integrator advances a configuration through the fluid limit: it keeps a
// continuous fraction vector x alongside the integer configuration,
// integrates the mean-field drift (adaptive RK45, Cash–Karp) or the chemical
// Langevin equation (fixed-step Euler–Maruyama with 1/√m noise) in parallel
// time, and writes the result back as integer counts by largest-remainder
// rounding — mass-conserving by construction (Σ counts = m exactly after
// every StepN) and non-negative (fractions are clamped and renormalised
// after every internal step).
//
// The continuous state persists across StepN calls: writing back quantises
// the *view*, not the dynamics, so sub-agent fractions (a species drifting
// through 0.3 agents at m = 10¹²) are not lost between chunks. Externally
// mutating the configuration between calls resyncs x from the counts, like
// BatchRandomPair's attach contract.
//
// Reproducibility: the ODE tier is deterministic; the Langevin tier consumes
// its *rand.Rand as a single sequential stream, so same-seed runs are
// bit-identical. Both are only distributionally comparable to the discrete
// tiers (and the ODE tier is their m → ∞ degenerate limit).
type Integrator struct {
	p *protocol.Protocol
	d *Deriv

	// langevin selects the diffusion tier; rng is its noise stream (unused
	// by the deterministic ODE tier).
	langevin bool
	rng      *rand.Rand

	attached   *multiset.Multiset
	m          int64
	x          []float64 // continuous fractions, Σx = 1
	lastCounts []int64   // what writeBack last produced; detects external mutation

	h        float64 // adaptive RK45 step in τ units, persisted across calls
	effCarry float64 // fractional effective-interaction remainder

	// scratch
	k      [6][]float64
	xt, xe []float64
	rates  []float64

	met *obs.SchedMetrics
}

var _ sched.BatchScheduler = (*Integrator)(nil)

const (
	// rk45Rtol/rk45Atol control the RK45 per-step error test
	// err = max_i |e_i| / (atol + rtol·|x_i|) ≤ 1. atol = 1e−12 resolves
	// single agents at m = 10¹², the largest population the golden runs
	// target; rtol keeps the bulk trajectory to six digits.
	rk45Rtol = 1e-6
	rk45Atol = 1e-12
	// rk45InitialStep seeds the adaptive step; the controller converges to
	// the right scale within a few accepted/rejected steps.
	rk45InitialStep = 1e-3
	// emStep is the fixed Euler–Maruyama step of the Langevin tier, in τ
	// units. EM is strong order 1/2, so the bias per τ unit is O(√h)·noise;
	// 1/32 keeps it well under the 1/√m fluctuation scale the tier models.
	emStep = 1.0 / 32
	// minChunk is the floor of PreferredChunk, the runner's default
	// quiescence period.
	minChunk = 1_000
)

// NewIntegrator builds the deterministic mean-field ODE tier for p.
func NewIntegrator(p *protocol.Protocol) *Integrator {
	return newIntegrator(p, false, nil)
}

// NewLangevin builds the diffusion tier: mean-field drift plus the chemical
// Langevin 1/√m noise term, driven by rng.
func NewLangevin(p *protocol.Protocol, rng *rand.Rand) *Integrator {
	return newIntegrator(p, true, rng)
}

func newIntegrator(p *protocol.Protocol, langevin bool, rng *rand.Rand) *Integrator {
	d := NewDeriv(p)
	ig := &Integrator{
		p:        p,
		d:        d,
		langevin: langevin,
		rng:      rng,
		x:        make([]float64, d.NumStates()),
		xt:       make([]float64, d.NumStates()),
		xe:       make([]float64, d.NumStates()),
		rates:    make([]float64, d.NumChannels()),
		h:        rk45InitialStep,
		met:      obs.Sched(),
	}
	for i := range ig.k {
		ig.k[i] = make([]float64, d.NumStates())
	}
	return ig
}

// PreferredChunk is the StepN chunk size the integrator wants: m/16
// interactions (1/16 of a parallel-time unit) so a convergence run costs
// tens of chunks per parallel-time unit at any m, and never fewer than
// 1,000. simulate.Run consults it when Options.BatchSize is unset.
func (ig *Integrator) PreferredChunk(m int64) int64 {
	return max(minChunk, m/16)
}

// attach (re)synchronises the continuous state with c: a no-op while c still
// holds exactly what the last writeBack produced, a fraction rebuild from
// counts otherwise (first call, new configuration, or external mutation).
func (ig *Integrator) attach(c *multiset.Multiset) {
	if ig.attached == c && ig.countsMatch(c) {
		return
	}
	ig.attached = c
	ig.m = c.Size()
	if len(ig.lastCounts) != c.Len() {
		ig.lastCounts = make([]int64, c.Len())
	}
	inv := 1 / float64(ig.m)
	for s := 0; s < c.Len(); s++ {
		cnt := c.Count(s)
		ig.lastCounts[s] = cnt
		ig.x[s] = float64(cnt) * inv
	}
	ig.h = rk45InitialStep
	ig.effCarry = 0
}

func (ig *Integrator) countsMatch(c *multiset.Multiset) bool {
	if len(ig.lastCounts) != c.Len() {
		return false
	}
	for s := range ig.lastCounts {
		if c.Count(s) != ig.lastCounts[s] {
			return false
		}
	}
	return true
}

// Step implements sched.Scheduler: a single interaction is 1/m of a τ unit.
func (ig *Integrator) Step(c *multiset.Multiset) bool {
	_, eff := ig.Advance(c, 1, 0)
	return eff > 0
}

// StepN implements sched.BatchScheduler: n interactions are n/m τ units of
// fluid flow. The returned effective count is the integral of the total
// channel rate along the trajectory — the fluid limit of the discrete
// tiers' effective-interaction count.
func (ig *Integrator) StepN(c *multiset.Multiset, n int64) int64 {
	_, eff := ig.Advance(c, n, 0)
	return eff
}

// Advance integrates up to n interactions of fluid flow and writes the
// result back to c. A positive floor arms the regime boundary: integration
// stops early as soon as any state's fractional count enters (0, floor) —
// the signal that stochastic effects are no longer negligible and a discrete
// tier must take over (see Hybrid). It returns the interactions actually
// consumed (n unless the boundary stopped it) and the effective-interaction
// estimate for that span.
func (ig *Integrator) Advance(c *multiset.Multiset, n int64, floor int64) (taken, effective int64) {
	m := c.Size()
	if m < 2 {
		panic(fmt.Sprintf("fluid: cannot advance a population of %d", m))
	}
	ig.attach(c)
	tau := float64(n) / float64(m)
	var done float64 // τ already integrated
	var effF float64
	floorFrac := 0.0
	if floor > 0 {
		floorFrac = float64(floor) / float64(m)
	}
	for done < tau {
		var dt, rate float64
		if ig.langevin {
			dt, rate = ig.emStepOnce(tau - done)
		} else {
			dt, rate = ig.rkStepOnce(tau - done)
		}
		done += dt
		effF += rate * dt * float64(m)
		if floorFrac > 0 && ig.belowFloor(floorFrac) {
			break
		}
	}
	ig.writeBack(c)
	taken = int64(math.Round(done * float64(m)))
	if taken > n {
		taken = n
	}
	if taken < 1 {
		// Guarantee progress: the caller asked for at least one interaction
		// and integration did run; report one consumed decision.
		taken = 1
	}
	effF += ig.effCarry
	effective = int64(effF)
	ig.effCarry = effF - float64(effective)
	if effective > taken {
		effective = taken
	}
	if ig.met != nil {
		ig.met.Steps.Add(taken)
		ig.met.Effective.Add(effective)
	}
	return taken, effective
}

// belowFloor reports whether any state's fraction sits strictly inside
// (0, floorFrac) — the boundary layer where fluid flow is no longer valid.
func (ig *Integrator) belowFloor(floorFrac float64) bool {
	for _, v := range ig.x {
		if v > 0 && v < floorFrac {
			return true
		}
	}
	return false
}

// Cash–Karp embedded Runge–Kutta 4(5) tableau.
var (
	ckA = [6][5]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{3.0 / 10, -9.0 / 10, 6.0 / 5},
		{-11.0 / 54, 5.0 / 2, -70.0 / 27, 35.0 / 27},
		{1631.0 / 55296, 175.0 / 512, 575.0 / 13824, 44275.0 / 110592, 253.0 / 4096},
	}
	// ckB5 is the 5th-order solution weight row; ckErr = b5 − b4 gives the
	// embedded error estimate directly.
	ckB5  = [6]float64{37.0 / 378, 0, 250.0 / 621, 125.0 / 594, 0, 512.0 / 1771}
	ckErr = [6]float64{
		37.0/378 - 2825.0/27648,
		0,
		250.0/621 - 18575.0/48384,
		125.0/594 - 13525.0/55296,
		-277.0 / 14336,
		512.0/1771 - 1.0/4,
	}
)

// rkStepOnce takes one adaptive Cash–Karp RK45 step of at most maxDt τ,
// mutating ig.x, and returns the τ actually advanced and the total channel
// rate at the step's start (for effective-interaction accounting).
func (ig *Integrator) rkStepOnce(maxDt float64) (dt, rate float64) {
	h := ig.h
	if h > maxDt {
		h = maxDt
	}
	rate = ig.d.Eval(ig.x, ig.k[0])
	for {
		for s := 1; s < 6; s++ {
			for i := range ig.xt {
				v := ig.x[i]
				for j := 0; j < s; j++ {
					v += h * ckA[s][j] * ig.k[j][i]
				}
				ig.xt[i] = v
			}
			ig.d.Eval(ig.xt, ig.k[s])
		}
		// 5th-order candidate in xt, embedded error in xe.
		maxErr := 0.0
		for i := range ig.xt {
			var dx, e float64
			for s := 0; s < 6; s++ {
				dx += ckB5[s] * ig.k[s][i]
				e += ckErr[s] * ig.k[s][i]
			}
			ig.xt[i] = ig.x[i] + h*dx
			ig.xe[i] = h * e
			if r := math.Abs(ig.xe[i]) / (rk45Atol + rk45Rtol*math.Abs(ig.x[i])); r > maxErr {
				maxErr = r
			}
		}
		// rk45MinStep guards against a pathological error estimate driving
		// h to zero: below it the step is accepted regardless (the error is
		// then far below any count resolution anyway).
		const rk45MinStep = 1e-14
		if maxErr <= 1 || h < rk45MinStep {
			copy(ig.x, ig.xt)
			ig.clampRenorm()
			// Grow the step for the next call (capped ×5), but never past
			// what this call accepted when maxDt truncated it.
			grow := 5.0
			if maxErr > 0 {
				if g := 0.9 * math.Pow(maxErr, -0.2); g < grow {
					grow = g
				}
			}
			if grow < 1 {
				grow = 1
			}
			ig.h = h * grow
			if ig.met != nil {
				ig.met.FluidRKSteps.Inc()
			}
			return h, rate
		}
		// Reject: shrink and retry (floor ×0.2 per rejection).
		shrink := 0.9 * math.Pow(maxErr, -0.25)
		if shrink < 0.2 {
			shrink = 0.2
		}
		h *= shrink
		ig.h = h
		if ig.met != nil {
			ig.met.FluidRKRejects.Inc()
		}
	}
}

// emStepOnce takes one fixed-step Euler–Maruyama step of at most maxDt τ:
// x += f(x)·h + Σ_t Δ_t·√(a_t·h/m)·ξ_t with independent standard normals
// ξ_t, the chemical Langevin discretisation at population m.
func (ig *Integrator) emStepOnce(maxDt float64) (dt, rate float64) {
	h := emStep
	if h > maxDt {
		h = maxDt
	}
	rate = ig.d.Rates(ig.x, ig.rates)
	// Drift: Σ_t a_t·Δ_t, assembled from the rates we already have.
	for i := range ig.xt {
		ig.xt[i] = ig.x[i]
	}
	for ci, a := range ig.rates {
		if a == 0 {
			continue
		}
		ig.d.applyScaled(ci, a*h, ig.xt)
		ig.d.applyScaled(ci, math.Sqrt(a*h/float64(ig.m))*ig.gauss(), ig.xt)
	}
	copy(ig.x, ig.xt)
	ig.clampRenorm()
	if ig.met != nil {
		ig.met.LangevinSteps.Inc()
	}
	return h, rate
}

// gauss draws a standard normal by Box–Muller from the integrator's stream.
func (ig *Integrator) gauss() float64 {
	u1 := ig.rng.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := ig.rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// clampRenorm restores the simplex invariants after a step: negative
// fractions (overshoot of a depleting species, or Langevin noise) clamp to
// zero and the vector renormalises to Σx = 1, so mass is conserved exactly
// at the fraction level and the integer writeback can distribute m fully.
func (ig *Integrator) clampRenorm() {
	var sum float64
	for i, v := range ig.x {
		if v < 0 {
			ig.x[i] = 0
			continue
		}
		sum += v
	}
	if sum <= 0 {
		// Degenerate (cannot happen from a valid configuration); resync on
		// the next attach rather than dividing by zero.
		ig.attached = nil
		return
	}
	inv := 1 / sum
	for i := range ig.x {
		ig.x[i] *= inv
	}
}

// writeBack quantises the fractions to integer counts summing to exactly m,
// by largest-remainder apportionment: floor everybody, then hand the
// leftover agents to the largest fractional parts (lowest state index wins
// ties, for determinism).
func (ig *Integrator) writeBack(c *multiset.Multiset) {
	mf := float64(ig.m)
	var sum int64
	for s := range ig.x {
		t := ig.x[s] * mf
		f := math.Floor(t)
		ig.xe[s] = t - f // reuse scratch for fractional parts
		ig.lastCounts[s] = int64(f)
		sum += ig.lastCounts[s]
	}
	for rem := ig.m - sum; rem > 0; rem-- {
		best := -1
		for s := range ig.xe {
			if best < 0 || ig.xe[s] > ig.xe[best] {
				best = s
			}
		}
		ig.xe[best] = -1
		ig.lastCounts[best]++
	}
	for s, cnt := range ig.lastCounts {
		if c.Count(s) != cnt {
			c.Set(s, cnt)
		}
	}
}
