package sched

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// CollisionKernel is a count-based batch interaction kernel: it advances the
// configuration a whole round of interactions at a time instead of
// simulating them one by one. It is tau-leaping with the step selection of
// Cao, Gillespie & Petzold (J. Chem. Phys. 124, 044109, 2006) and their
// exact treatment of critical reactions (J. Chem. Phys. 123, 054104, 2005),
// over the reactive categories of the protocol's pair index: one per
// non-silent candidate of each protocol.ReactivePair, laid out in the exact
// sampler's key order. At the counts a round starts from it
//
//  1. marks a category critical when one of its reactant states holds
//     fewer than critical (512) agents,
//  2. sizes the round B as the largest number of interactions in which the
//     expected net change of every reactant count, summed over the
//     non-critical categories, stays within 1/margin (1/16) of that count,
//     capped by roundCap and by the interactions left in the call,
//  3. draws G ~ Geometric(p_crit), the interactions before the first
//     critical firing, and runs min(B, G) interactions in which the
//     non-critical categories fire: E ~ Binomial(min(B, G),
//     p_non/(1−p_crit)) effective interactions, split across the
//     categories by a multinomial (a chain of conditional binomials), with
//     p_non and the split taken at the round's expected midpoint counts
//     (the starting counts plus half the expected drift),
//  4. if G < B, fires one critical category, drawn by weight, and ends the
//     round there, and
//  5. applies the per-state deltas in bulk.
//
// Counts are frozen, at their expected midpoint, for the non-critical part
// of a round, and that is the kernel's only approximation; every binomial
// is drawn exactly. Critical categories fire one at a time, at the exact
// rate of the round's starting counts. The exact sampler (BatchRandomPair)
// takes over whenever the approximation has nothing to gain or cannot be
// kept small:
//
//   - every enabled category is critical (small populations, depleting
//     tails), or
//   - a round expects fewer than one effective interaction, which includes
//     B = 0 when a reactant at count 0 is produced by a non-critical
//     category.
//
// Such a chunk runs 32/p_eff interactions, capped by the call, so that it
// expects 32 effective interactions; its geometric skip covers about
// 1/p_eff interactions per draw. A round whose draw would take a count
// below zero (rare: non-critical categories consume only states with at
// least critical agents) is discarded and its interactions re-run on the
// exact path.
//
// Each hand-off is counted in BatchFallbacks. Small populations therefore
// never see the approximation at all (below 512 agents every category is
// critical), and the two-sample KS tests in internal/simulate pin the
// agreement with the exact sampler on large ones.
//
// Cost: one round is O(#categories + #states) regardless of its length, and
// rounds end either at a critical firing or after a 1/margin drift of some
// reactant count, so a run takes O(#critical firings + margin·#states·log m)
// rounds where the exact path pays O(log |Q|) per effective interaction.
//
// Reproducibility contract: a CollisionKernel consumes its *rand.Rand as a
// single deterministic stream across bulk rounds and exact chunks, so
// same-seed runs are bit-identical. Different kernels (or the same kernel
// with different round knobs) draw different streams and are only
// distributionally comparable.
type CollisionKernel struct {
	inner *BatchRandomPair
	rng   source

	// cats flattens the reactive (pair key, non-silent transition)
	// candidates in deterministic declaration order; weight of cat i at
	// counts C is C(Q)·(C(R)−[Q=R])·perT, the exact per-candidate sampling
	// weight of the per-step law scaled by Λ. crit marks the enabled
	// categories that are critical at the surveyed counts.
	cats    []bulkCat
	weights []int64
	crit    []bool
	// reactants lists every state some category consumes, once each;
	// drift[s] is Σ weight·(net change of s) over the non-critical
	// categories, the expected drift of s scaled by Λ·m·(m−1). midW holds
	// each non-critical category's weight at the round's midpoint counts.
	reactants []int
	drift     []float64
	midW      []float64

	// The survey of the current counts: total non-critical and critical
	// weight, and the drift-limited round length (0 forces the exact path).
	wNon, wCrit, bound int64

	// fires/deltas/touched/mark are the bulk-apply scratch: per-category
	// firing counts (for onFireN) and net per-state count deltas
	// accumulated across the round's draws, applied once per state.
	fires   []int64
	deltas  []int64
	touched []int
	mark    []bool

	// roundCap bounds a round's length; margin is the drift bound (expected
	// change ≤ count/margin); a category with a reactant count below
	// critical is critical.
	roundCap int64
	margin   int64
	critical int64

	// noBulk disables bulk rounds entirely when the integer weight
	// arithmetic is unavailable (Λ overflow at construction); the
	// per-population overflow guard is re-checked every survey.
	noBulk bool

	// plan memoises the setup of the rounds' effective-count draw.
	plan binomialPlan

	// onFireN, when non-nil, observes every transition fired by a bulk
	// round with its multiplicity; exact-path firings are observed through
	// inner.onFire. Test instrumentation.
	onFireN func(protocol.Transition, int64)
	met     *obs.SchedMetrics
}

var _ BatchScheduler = (*CollisionKernel)(nil)

// bulkCat is one flattened reactive category: a non-silent transition with
// its integral per-pair sampling weight Λ/#candidates(Q, R).
type bulkCat struct {
	t    protocol.Transition
	perT int64
}

// Collision kernel defaults. margin 16 bounds each reactant's expected
// drift within a round to 1/16 of its count; critical 512 = 16·32 is the
// count below which the kernel's earlier round rule (B = smallest count/16,
// at least 32) already fell back to the exact path. An exact hand-off lasts
// long enough to expect exactRunEffective effective interactions, so the
// survey after it (O(#categories)) costs little beside them, and no
// longer, so a species that appears from zero goes back to bulk rounds
// after a few dozen firings.
const (
	defaultRoundCap   = 1 << 20
	defaultBulkMargin = 16
	defaultCritical   = 512
	exactRunEffective = 32
)

// minPreferredChunk is the floor of PreferredChunk: the runner's default
// quiescence period, so small populations keep its chunking.
const minPreferredChunk = 1_000

// NewCollisionKernel builds the count-based batch kernel for protocol p.
func NewCollisionKernel(p *protocol.Protocol, rng *rand.Rand) *CollisionKernel {
	return newCollisionKernel(p, rng)
}

func newCollisionKernel(p *protocol.Protocol, rng source) *CollisionKernel {
	inner := newBatchRandomPair(p, rng)
	k := &CollisionKernel{
		inner:    inner,
		rng:      rng,
		drift:    make([]float64, p.NumStates()),
		deltas:   make([]int64, p.NumStates()),
		mark:     make([]bool, p.NumStates()),
		roundCap: defaultRoundCap,
		margin:   defaultBulkMargin,
		critical: defaultCritical,
		noBulk:   inner.noSkip,
		met:      obs.Sched(),
	}
	if !k.noBulk {
		// The exact sampler's keys, flattened in order: sharing the pair
		// index's law is what keeps this kernel, the exact sampler and the
		// fluid drift mutually consistent. perT = Λ/#candidates is integral
		// by construction of Λ.
		n := 0
		for _, key := range inner.reactive {
			n += len(key.Fire)
		}
		k.cats = make([]bulkCat, 0, n)
		for _, key := range inner.reactive {
			perT := inner.lambda / int64(key.Candidates)
			for _, t := range key.Fire {
				k.cats = append(k.cats, bulkCat{t: t, perT: perT})
			}
		}
	}
	k.weights = make([]int64, len(k.cats))
	k.crit = make([]bool, len(k.cats))
	k.midW = make([]float64, len(k.cats))
	k.fires = make([]int64, len(k.cats))
	k.touched = make([]int, 0, p.NumStates())
	for _, cat := range k.cats {
		for _, s := range [2]int{int(cat.t.Q), int(cat.t.R)} {
			if !k.mark[s] {
				k.mark[s] = true
				k.reactants = append(k.reactants, s)
			}
		}
	}
	clear(k.mark)
	return k
}

// Reactive returns the reactive pairs of the kernel's pair index in the
// order its exact sampler draws them (protocol.Stepper.Reactive), so a
// caller that needs them too — the fluid drift of the auto ladder — builds
// no second index. The slice is shared; callers must not modify it.
func (k *CollisionKernel) Reactive() []protocol.ReactivePair { return k.inner.reactive }

// BulkAvailable reports whether the kernel's integral bulk-round arithmetic
// is usable for a population of m agents: the per-category weights
// C(Q)·C(R)·perT and the normaliser Λ·m·(m−1) must fit in int64. Above
// roughly m = 3·10⁹ (for Λ = 1) the products overflow and every StepN chunk
// takes the exact per-step path — the regime where only the fluid tier
// (internal/fluid) can make progress.
func (k *CollisionKernel) BulkAvailable(m int64) bool {
	if k.noBulk || len(k.cats) == 0 || m < 2 {
		return false
	}
	return k.inner.lambda <= math.MaxInt64/m/(m+1)
}

// PreferredChunk is the StepN chunk the kernel wants from simulate's run
// loop: m/16 interactions, 1/16 of a parallel-time unit, and never fewer
// than 1,000. Rounds cannot span chunks, so chunks much shorter than the
// drift bound would cut them short.
func (k *CollisionKernel) PreferredChunk(m int64) int64 {
	return max(minPreferredChunk, m/16)
}

// Step implements Scheduler by delegating to the exact per-step path.
func (k *CollisionKernel) Step(c *multiset.Multiset) bool {
	return k.inner.Step(c)
}

// StepN implements BatchScheduler: bulk rounds while some enabled category
// is non-critical and a round expects at least one effective interaction,
// exact chunks otherwise.
//
// The survey depends on the counts alone, so it is reused until a round or
// exact chunk reports an effective interaction; only the cap at the
// interactions left in the call is applied per round. The survey is taken
// afresh on entry, because a caller may change c between calls (the
// hybrid's fluid tier does).
func (k *CollisionKernel) StepN(c *multiset.Multiset, n int64) int64 {
	m := c.Size()
	if m < 2 {
		panic(fmt.Sprintf("sched: cannot sample an agent pair from a population of %d", m))
	}
	var t0 time.Time
	if k.met != nil {
		t0 = time.Now()
	}
	var effective, taken int64
	stale := true
	// Telemetry of the bulk rounds and the dead tail, published once per
	// call; exact chunks publish their own through the exact sampler.
	var rounds, fallbacks, bulkSteps, bulkEffective, deadSteps int64
	for taken < n {
		if stale && k.survey(c, m) {
			// No reactive pair is enabled: the rest of the batch is all
			// null interactions (matches BatchRandomPair's dead path).
			deadSteps = n - taken
			break
		}
		b, exact := k.nextRound(m, n-taken)
		var eff int64
		if !exact {
			var steps int64
			if steps, eff, exact = k.bulkRound(c, m, b); !exact {
				b = steps
				rounds++
				bulkSteps += steps
				bulkEffective += eff
				if k.met != nil {
					k.met.BatchRoundSize.Observe(steps)
				}
			}
		}
		if exact {
			fallbacks++
			eff = k.inner.StepN(c, b)
		}
		taken += b
		effective += eff
		stale = eff > 0
	}
	if k.met != nil {
		k.met.Steps.Add(bulkSteps + deadSteps)
		k.met.NullsSkipped.Add(bulkSteps - bulkEffective + deadSteps)
		k.met.Effective.Add(bulkEffective)
		k.met.BatchRounds.Add(rounds)
		k.met.BatchFallbacks.Add(fallbacks)
		if elapsed := time.Since(t0); elapsed > 0 {
			k.met.InteractionsPerSec.Set(int64(float64(n) / elapsed.Seconds()))
		}
	}
	return effective
}

// survey recomputes the category weights and criticality at the current
// counts and the drift-limited round length. It reports dead = true when no
// category has positive weight — the configuration can never change again
// under random pairing. When the weight arithmetic is unavailable it leaves
// both weights 0 and reports live, and the exact path decides.
func (k *CollisionKernel) survey(c *multiset.Multiset, m int64) (dead bool) {
	k.wNon, k.wCrit, k.bound = 0, 0, 0
	if k.noBulk {
		// Bulk weights unavailable; the exact path decides liveness itself.
		return false
	}
	if len(k.cats) == 0 {
		// No non-silent transition exists at all: every interaction is null.
		return true
	}
	if k.inner.lambda > math.MaxInt64/m/(m+1) {
		return false
	}
	clear(k.drift)
	for i := range k.cats {
		t := &k.cats[i].t
		nq, nr := c.Count(int(t.Q)), c.Count(int(t.R))
		pairs := nr
		if t.Q == t.R {
			pairs--
		}
		if nq <= 0 || pairs <= 0 {
			k.weights[i] = 0
			continue
		}
		w := nq * pairs * k.cats[i].perT
		k.weights[i] = w
		k.crit[i] = nq < k.critical || nr < k.critical
		if k.crit[i] {
			k.wCrit += w
			continue
		}
		k.wNon += w
		fw := float64(w)
		k.drift[t.Q] -= fw
		k.drift[t.R] -= fw
		k.drift[t.Q2] += fw
		k.drift[t.R2] += fw
	}
	if k.wNon == 0 {
		return k.wCrit == 0
	}
	// B·|drift_s|/(Λ·m·(m−1)) ≤ C(s)/margin for every reactant s; a
	// reactant at count 0 with positive drift forces B = 0.
	norm := float64(k.inner.lambda) * float64(m) * float64(m-1)
	limit := float64(k.roundCap)
	for _, s := range k.reactants {
		if d := math.Abs(k.drift[s]); d > 0 {
			limit = min(limit, float64(c.Count(s))*norm/(float64(k.margin)*d))
		}
	}
	k.bound = int64(limit)
	return false
}

// nextRound decides, from the survey, the length of the next step of a call
// with rest interactions left and whether the exact path takes it.
func (k *CollisionKernel) nextRound(m, rest int64) (b int64, exact bool) {
	if k.wNon+k.wCrit == 0 {
		// Bulk arithmetic unavailable: the exact path takes the call.
		return rest, true
	}
	pEff := float64(k.wNon+k.wCrit) / (float64(k.inner.lambda) * float64(m) * float64(m-1))
	if k.wNon > 0 {
		if b = min(k.bound, rest); float64(b)*pEff >= 1 {
			return b, false
		}
	}
	// An exact chunk expects exactRunEffective effective interactions, so
	// the survey that follows it is amortised over them.
	return min(rest, int64(math.Ceil(min(exactRunEffective/pEff, float64(math.MaxInt64/2))))), true
}

// bulkRound runs one round of at most b interactions against the survey's
// weights: the non-critical part by one binomial and a multinomial, ended
// early by a critical firing when the geometric draw lands inside it. It
// returns the interactions the round covered and its effective count, or
// discarded = true, with c untouched, when the draw would take a count below
// zero.
func (k *CollisionKernel) bulkRound(c *multiset.Multiset, m, b int64) (steps, effective int64, discarded bool) {
	norm := float64(k.inner.lambda) * float64(m) * float64(m-1)
	steps = b
	critical := false
	if k.wCrit > 0 {
		if g := geometricSkip(k.rng, float64(k.wCrit)/norm); g < b {
			steps, critical = g, true
		}
	}
	// The non-critical rates are taken at the round's expected midpoint,
	// the starting counts plus half the expected drift over its steps
	// interactions: frozen at the start, they lag every count that moves
	// within the round, a first-order bias (about −0.5% effective
	// interactions at majority m = 10⁶) that the midpoint cancels.
	half := float64(steps) / (2 * norm)
	var wMid float64
	last := -1
	for i := range k.cats {
		k.midW[i] = 0
		if k.weights[i] == 0 || k.crit[i] {
			continue
		}
		t := &k.cats[i].t
		q := float64(c.Count(int(t.Q))) + k.drift[t.Q]*half
		r := float64(c.Count(int(t.R))) + k.drift[t.R]*half
		if t.Q == t.R {
			r--
		}
		if w := max(q, 0) * max(r, 0) * float64(k.cats[i].perT); w > 0 {
			k.midW[i], wMid, last = w, wMid+w, i
		}
	}
	// Given that none of them is a critical firing, each of the steps
	// interactions is a non-critical firing with probability
	// p_non/(1−p_crit), split across the categories by a multinomial.
	effective = k.plan.binomial(k.rng, steps, wMid/(norm-float64(k.wCrit)))
	rem, wRem := effective, wMid
	for i := 0; i <= last && rem > 0; i++ {
		w := k.midW[i]
		if w == 0 {
			continue
		}
		e := rem // the last positive-weight category absorbs the remainder
		if i < last {
			e = binomial(k.rng, rem, w/wRem)
		}
		k.fire(i, e)
		rem -= e
		wRem -= w
	}
	if critical {
		target := k.rng.Int63n(k.wCrit)
		for i := range k.cats {
			if w := k.weights[i]; w > 0 && k.crit[i] {
				if target < w {
					k.fire(i, 1)
					break
				}
				target -= w
			}
		}
		steps++
		effective++
	}
	for _, s := range k.touched {
		if c.Count(s)+k.deltas[s] < 0 {
			discarded = true
		}
	}
	for _, s := range k.touched {
		if d := k.deltas[s]; d != 0 && !discarded {
			c.Add(s, d)
		}
		k.deltas[s] = 0
		k.mark[s] = false
	}
	k.touched = k.touched[:0]
	if k.onFireN != nil {
		for i, e := range k.fires {
			if e > 0 && !discarded {
				k.onFireN(k.cats[i].t, e)
			}
		}
		clear(k.fires)
	}
	if discarded {
		return 0, 0, true
	}
	// The bulk mutation bypassed the exact path's Fenwick/weight
	// bookkeeping; detach so the next exact step rebuilds from counts.
	if k.inner.attached == c {
		k.inner.attached = nil
	}
	return steps, effective, false
}

// fire records e firings of category i in the round's scratch.
func (k *CollisionKernel) fire(i int, e int64) {
	if e == 0 {
		return
	}
	if k.onFireN != nil {
		k.fires[i] += e
	}
	t := k.cats[i].t
	k.addDelta(int(t.Q), -e)
	k.addDelta(int(t.R), -e)
	k.addDelta(int(t.Q2), e)
	k.addDelta(int(t.R2), e)
}

func (k *CollisionKernel) addDelta(s int, d int64) {
	if !k.mark[s] {
		k.mark[s] = true
		k.touched = append(k.touched, s)
	}
	k.deltas[s] += d
}
