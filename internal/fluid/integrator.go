package fluid

import (
	"fmt"
	"math"

	"repro/internal/multiset"
	"repro/internal/obs"
)

// Integrator advances a configuration through the fluid limit: it keeps a
// continuous fraction vector x alongside the integer configuration,
// integrates the mean-field drift (adaptive RK45, Cash–Karp) in parallel
// time, and writes the result back as integer counts by largest-remainder
// rounding — mass-conserving by construction (Σ counts = m exactly after
// every Advance) and non-negative (fractions are clamped and renormalised
// after every internal step).
//
// The continuous state persists across Advance calls: writing back
// quantises the *view*, not the dynamics, so sub-agent fractions (a species
// drifting through 0.3 agents at m = 10¹²) are not lost between chunks.
// Externally mutating the configuration between calls resyncs x from the
// counts, like BatchRandomPair's attach contract.
//
// The integrator is deterministic, and only distributionally comparable to
// the discrete tiers (it is their m → ∞ degenerate limit); Hybrid decides
// where it runs.
type Integrator struct {
	d *Deriv

	attached   *multiset.Multiset
	m          int64
	x          []float64 // continuous fractions, Σx = 1
	lastCounts []int64   // what writeBack last produced; detects external mutation

	h        float64 // adaptive RK45 step in τ units, persisted across calls
	effCarry float64 // fractional effective-interaction remainder

	// scratch
	k      [6][]float64
	xt, xe []float64

	met *obs.SchedMetrics
}

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
	// minChunk is the floor of PreferredChunk, the runner's default
	// quiescence period.
	minChunk = 1_000
)

// newIntegrator builds the ODE tier over a compiled drift.
func newIntegrator(d *Deriv) *Integrator {
	ig := &Integrator{
		d:   d,
		x:   make([]float64, d.NumStates()),
		xt:  make([]float64, d.NumStates()),
		xe:  make([]float64, d.NumStates()),
		h:   rk45InitialStep,
		met: obs.Sched(),
	}
	for i := range ig.k {
		ig.k[i] = make([]float64, d.NumStates())
	}
	return ig
}

// PreferredChunk is the chunk size the integrator wants: m/16
// interactions (1/16 of a parallel-time unit) so a convergence run costs
// tens of chunks per parallel-time unit at any m, and never fewer than
// 1,000. simulate.Run consults it, through Hybrid, when Options.BatchSize
// is unset.
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

// Advance integrates up to n interactions of fluid flow and writes the
// result back to c. A positive floor arms the regime boundary: integration
// stops early as soon as any state's fractional count enters (0, floor) —
// the signal that stochastic effects are no longer negligible and a discrete
// tier must take over (see Hybrid). It returns the interactions actually
// consumed (n unless the boundary stopped it, and never less than 1) and
// the effective-interaction estimate for that span: the integral of the
// total channel rate along the trajectory, the fluid limit of the discrete
// tiers' effective-interaction count.
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
		dt, rate := ig.rkStepOnce(tau - done)
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

// clampRenorm restores the simplex invariants after a step: negative
// fractions (overshoot of a depleting species) clamp to
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
