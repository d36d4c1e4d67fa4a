// Package fluid is the top rung of the simulation ladder: deterministic
// mean-field (fluid-limit) integration over normalized count fractions, for
// populations far beyond what per-round binomial/multinomial sampling
// (sched.CollisionKernel) can reach.
//
// The mean-field limit of the uniform random-pair law is the ODE system
//
//	dx_s/dτ = Σ_t a_t(x)·Δ_t(s),   a_t(x) = x_Q·x_R / #candidates(Q, R)
//
// over state fractions x, where τ is parallel time (one τ unit = m
// interactions) and Δ_t is the integer per-firing count delta of transition
// t. The channels and their weights come from the reactive pairs of
// protocol.Stepper — the same index the exact sampler and the collision
// kernel draw from, so the fluid drift is by construction the m → ∞ limit of
// the stochastic tiers below it.
//
// The ODE tier runs only inside Hybrid, the auto kernel's ladder, which
// hands every boundary layer (some consumed species below DefaultFloor
// agents) to the collision kernel. The cross-tier KS differential suite in
// internal/simulate pins the ladder's agreement with the discrete kernels
// at m = 10⁵–10⁷.
package fluid

import "repro/internal/protocol"

// channel is one compiled reaction channel: the consumed pair, the rate
// coefficient 1/#candidates, and the non-zero per-state count deltas of one
// firing (at most 4 states, duplicates collapsed).
type channel struct {
	q, r   int
	inv    float64 // 1/#candidates(q, r)
	states [4]int
	deltas [4]float64
	nd     int
}

// Deriv is the compiled polynomial drift of a protocol's mean-field limit.
// It is immutable after construction and safe for concurrent use.
type Deriv struct {
	n     int
	chans []channel
}

// newDeriv compiles the reactive pairs of a protocol over numStates states,
// one channel per non-silent candidate of each reactive pair, into
// evaluable drift form.
func newDeriv(numStates int, pairs []protocol.ReactivePair) *Deriv {
	n := 0
	for _, pair := range pairs {
		n += len(pair.Fire)
	}
	d := &Deriv{n: numStates, chans: make([]channel, 0, n)}
	for _, pair := range pairs {
		for _, t := range pair.Fire {
			c := channel{q: pair.Q, r: pair.R, inv: 1 / float64(pair.Candidates)}
			add := func(s int, v float64) {
				for i := 0; i < c.nd; i++ {
					if c.states[i] == s {
						c.deltas[i] += v
						return
					}
				}
				c.states[c.nd] = s
				c.deltas[c.nd] = v
				c.nd++
			}
			add(int(t.Q), -1)
			add(int(t.R), -1)
			add(int(t.Q2), 1)
			add(int(t.R2), 1)
			// Drop zero entries (a state both consumed and produced).
			w := 0
			for i := 0; i < c.nd; i++ {
				if c.deltas[i] != 0 {
					c.states[w] = c.states[i]
					c.deltas[w] = c.deltas[i]
					w++
				}
			}
			c.nd = w
			d.chans = append(d.chans, c)
		}
	}
	return d
}

// NumStates returns the dimension of the fraction vector.
func (d *Deriv) NumStates() int { return d.n }

// Eval writes the drift at fractions x into out (len d.NumStates()) and
// returns the total channel rate Σ_t a_t(x) — the expected fraction of
// effective interactions per scheduling decision, used by the integrators to
// estimate effective-step counts. Negative fractions (transient integrator
// excursions) contribute zero rate, so the drift can never amplify them.
func (d *Deriv) Eval(x, out []float64) (total float64) {
	for i := range out {
		out[i] = 0
	}
	for ci := range d.chans {
		c := &d.chans[ci]
		a := x[c.q] * x[c.r] * c.inv
		if a <= 0 || x[c.q] <= 0 || x[c.r] <= 0 {
			continue
		}
		total += a
		for i := 0; i < c.nd; i++ {
			out[c.states[i]] += a * c.deltas[i]
		}
	}
	return total
}
