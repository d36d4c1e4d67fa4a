package fluid

import (
	"math/rand"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// DefaultFloor is the regime switch-over bound: the hybrid runs the fluid
// tier only while every consumed species with a non-zero count holds at
// least this many agents. At 2¹⁴ agents the relative fluctuation scale
// 1/√count is under 1%, where the deterministic drift dominates; below it
// the discrete collision kernel (which itself falls back to the exact
// per-step law near depletion) takes over.
const DefaultFloor = 1 << 14

// Hybrid is the full simulation ladder behind one scheduler: mean-field
// fluid flow while every consumed species is macroscopic, the tau-leaping
// collision kernel (with its own exact-path fallback) through boundary
// layers where some count is small. It extends the kernel's auto/fallback
// pattern one rung up: the same configuration may climb and descend tiers
// many times in one run (an epidemic seeds discretely, burns through its
// bulk as fluid, and resolves its last susceptibles discretely again).
//
// When the kernel's integral bulk arithmetic is unavailable for the
// population (Λ·m·(m+1) overflows int64, roughly m > 3·10⁹) the discrete
// tier cannot make useful progress, so the hybrid stays fluid regardless of
// per-species counts — the only regime that reaches m = 10¹²⁺.
//
// Every chunk is routed per the configuration's current counts, and each
// fluid↔discrete hand-off is counted in the scheduler telemetry
// (RegimeSwitches, FluidChunks, DiscreteChunks).
type Hybrid struct {
	kernel *sched.CollisionKernel
	integ  *Integrator

	// tracked lists the states whose counts gate the fluid regime: those
	// consumed by some channel of the integrator's drift. Product-only and
	// inert states never enter a rate, so their counts are irrelevant to
	// tier validity.
	tracked []int

	haveRegime bool
	fluid      bool

	met *obs.SchedMetrics
}

var _ sched.BatchScheduler = (*Hybrid)(nil)

// NewHybrid builds the regime-switching ladder scheduler for p. rng drives
// the discrete tier; the fluid tier is deterministic. The drift compiles the
// kernel's reactive pairs, so both tiers read one pair index.
func NewHybrid(p *protocol.Protocol, rng *rand.Rand) *Hybrid {
	kernel := sched.NewCollisionKernel(p, rng)
	h := &Hybrid{
		kernel: kernel,
		integ:  newIntegrator(newDeriv(p.NumStates(), kernel.Reactive())),
		met:    obs.Sched(),
	}
	seen := make([]bool, p.NumStates())
	for _, c := range h.integ.d.chans {
		for _, s := range [2]int{c.q, c.r} {
			if !seen[s] {
				seen[s] = true
				h.tracked = append(h.tracked, s)
			}
		}
	}
	return h
}

// PreferredChunk forwards the fluid tier's preferred StepN chunk, so
// simulate.Run sizes batches to the population when none is requested.
func (h *Hybrid) PreferredChunk(m int64) int64 { return h.integ.PreferredChunk(m) }

// Step implements sched.Scheduler through the discrete tier: a single
// interaction is exactly the per-step law, whatever the counts.
func (h *Hybrid) Step(c *multiset.Multiset) bool { return h.kernel.Step(c) }

// StepN implements sched.BatchScheduler, routing slices of the batch to the
// tier the current counts call for.
func (h *Hybrid) StepN(c *multiset.Multiset, n int64) int64 {
	m := c.Size()
	bulkOK := h.kernel.BulkAvailable(m)
	var taken, effective int64
	for taken < n {
		useFluid := !bulkOK || h.fluidEligible(c)
		h.noteRegime(useFluid)
		if useFluid {
			floor := int64(DefaultFloor)
			if !bulkOK {
				floor = 0 // no discrete tier to hand over to; never stop
			}
			adv, eff := h.integ.Advance(c, n-taken, floor)
			if h.met != nil {
				h.met.FluidChunks.Inc()
			}
			taken += adv
			effective += eff
			continue
		}
		// The kernel takes the rest of the call: its rounds size themselves
		// by drift, and a call is already a 1/16 parallel-time chunk when
		// the runner sizes it (PreferredChunk), so the next call re-checks
		// the regime soon enough.
		effective += h.kernel.StepN(c, n-taken)
		taken = n
		if h.met != nil {
			h.met.DiscreteChunks.Inc()
		}
	}
	return effective
}

// fluidEligible reports whether every tracked (consumed) species is either
// absent or macroscopic: no non-zero count below the floor.
func (h *Hybrid) fluidEligible(c *multiset.Multiset) bool {
	for _, s := range h.tracked {
		if cnt := c.Count(s); cnt > 0 && cnt < DefaultFloor {
			return false
		}
	}
	return true
}

func (h *Hybrid) noteRegime(fluid bool) {
	if h.haveRegime && fluid != h.fluid && h.met != nil {
		h.met.RegimeSwitches.Inc()
	}
	h.haveRegime = true
	h.fluid = fluid
}
