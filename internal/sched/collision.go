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
// configuration a whole round of B interactions at a time instead of
// simulating interactions one by one. Per round it
//
//  1. draws the null/effective split in a single binomial draw
//     E ~ Binomial(B, p_eff), where p_eff is the effective-interaction
//     probability at the round's starting counts,
//  2. splits the E effective interactions across reactive transition
//     categories with a multinomial draw against the same counts
//     (realised as a chain of conditional binomials), and
//  3. applies the per-state transition deltas in bulk.
//
// The round freezes the state counts for its duration ("tau-leaping" in the
// chemical-kinetics literature), so it is an approximation whose error is
// bounded by the relative count drift within one round. The kernel keeps
// that drift small structurally: the round size is capped at
// minCount/margin, where minCount is the smallest count of any state
// consumed by an enabled category, so no state can change by more than a
// 2/margin fraction of itself within a round (and, with margin ≥ 2, no
// count can go negative). Whenever that cap falls below minRound — any
// involved state count within the safety margin of the batch size — the
// kernel falls back to the exact per-step/geometric path (BatchRandomPair),
// which is distribution-preserving. Small populations therefore never see
// the approximation at all, and large populations only see it while every
// involved count is large, exactly where it is statistically tight (the
// two-sample KS differential test in internal/simulate pins the agreement).
//
// Cost: one bulk round is O(#categories) regardless of B, so on
// effective-interaction-dominated configurations the per-interaction cost
// is O(#categories / B) — asymptotically free as counts grow — versus the
// exact path's O(log |Q|) Fenwick work per effective interaction.
//
// Reproducibility contract: a CollisionKernel consumes its *rand.Rand as a
// single deterministic stream across bulk rounds and fallback chunks, so
// same-seed runs are bit-identical. Different kernels (or the same kernel
// with different round knobs) draw different streams and are only
// distributionally comparable.
type CollisionKernel struct {
	inner *BatchRandomPair
	rng   source

	// cats flattens the reactive (pair key, non-silent transition)
	// candidates in deterministic declaration order; weight of cat i at
	// counts C is C(Q)·(C(R)−[Q=R])·perT, the exact per-candidate sampling
	// weight of the per-step law scaled by Λ.
	cats    []bulkCat
	weights []int64

	// deltas/touched/mark are the bulk-apply scratch: net per-state count
	// deltas accumulated across the round's multinomial, applied once per
	// state.
	deltas  []int64
	touched []int
	mark    []bool

	// roundCap bounds the bulk round size; margin is the safety factor
	// (round ≤ minInvolvedCount/margin, clamped to ≥ 2 so bulk application
	// can never drive a count negative); rounds smaller than minRound fall
	// back to the exact path, in chunks of fallbackChunk interactions.
	roundCap      int64
	margin        int64
	minRound      int64
	fallbackChunk int64

	// noBulk disables bulk rounds entirely when the integer weight
	// arithmetic is unavailable (Λ overflow at construction); the
	// per-population overflow guard is re-checked every round.
	noBulk bool

	// plan memoises the zero-success threshold of the bulk rounds'
	// effective-count draw, which repeats its (B, p_eff) for as long as
	// rounds fire nothing.
	plan binomialPlan

	// onFireN, when non-nil, observes every transition fired by a bulk
	// round with its multiplicity; fallback-path firings are observed
	// through inner.onFire. Test instrumentation.
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

// Collision kernel defaults. margin 16 keeps the within-round count drift
// under 2/16 = 12.5% worst case (typically far less, since only an E ≈
// B·p_eff fraction of the round is effective); minRound 32 is the point
// below which one exact geometric draw is cheaper than a round's multinomial.
const (
	defaultRoundCap      = 1 << 20
	defaultBulkMargin    = 16
	defaultMinBulkRound  = 32
	defaultFallbackChunk = 1 << 12
)

// NewCollisionKernel builds the count-based batch kernel for protocol p.
func NewCollisionKernel(p *protocol.Protocol, rng *rand.Rand) *CollisionKernel {
	return newCollisionKernel(p, rng)
}

func newCollisionKernel(p *protocol.Protocol, rng source) *CollisionKernel {
	inner := newBatchRandomPair(p, rng)
	k := &CollisionKernel{
		inner:         inner,
		rng:           rng,
		deltas:        make([]int64, p.NumStates()),
		mark:          make([]bool, p.NumStates()),
		roundCap:      defaultRoundCap,
		margin:        defaultBulkMargin,
		minRound:      defaultMinBulkRound,
		fallbackChunk: defaultFallbackChunk,
		noBulk:        inner.noSkip,
		met:           obs.Sched(),
	}
	if !k.noBulk {
		// Identical flattening (and order) to ReactiveChannels: the shared
		// channel law is what keeps this kernel, the exact sampler and the
		// fluid drift mutually consistent. perT = Λ/#candidates is integral
		// by construction of Λ.
		for _, ch := range ReactiveChannels(p) {
			k.cats = append(k.cats, bulkCat{t: ch.T, perT: inner.lambda / int64(ch.Candidates)})
		}
	}
	k.weights = make([]int64, len(k.cats))
	return k
}

// Step implements Scheduler by delegating to the exact per-step path.
func (k *CollisionKernel) Step(c *multiset.Multiset) bool {
	return k.inner.Step(c)
}

// StepN implements BatchScheduler: bulk rounds while every involved state
// count clears the safety margin, exact chunks otherwise.
//
// roundSize's verdict depends on the counts alone, so it is reused until a
// round or fallback chunk reports an effective interaction; only the cap at
// the interactions left in the call is applied per round. A configuration
// whose rounds fire nothing thus costs one binomial draw per round. The
// verdict is recomputed on entry, because a caller may change c between
// calls (the hybrid's fluid tier does).
func (k *CollisionKernel) StepN(c *multiset.Multiset, n int64) int64 {
	m := c.Size()
	if m < 2 {
		panic(fmt.Sprintf("sched: cannot sample an agent pair from a population of %d", m))
	}
	var t0 time.Time
	if k.met != nil {
		t0 = time.Now()
	}
	var effective, taken, B, totalW int64
	var dead bool
	stale := true
	// Telemetry of the bulk rounds and the dead tail, published once per
	// call; fallback chunks publish their own through the exact sampler.
	var rounds, fallbacks, bulkSteps, bulkEffective, deadSteps int64
	for taken < n {
		if stale {
			B, totalW, dead = k.roundSize(c, m)
		}
		if dead {
			// No reactive pair is enabled: the rest of the batch is all
			// null interactions (matches BatchRandomPair's dead path).
			deadSteps = n - taken
			break
		}
		var eff int64
		if B == 0 {
			chunk := min(n-taken, k.fallbackChunk)
			fallbacks++
			eff = k.inner.StepN(c, chunk)
			taken += chunk
		} else {
			// Safety only caps a round from above, so shrinking it to what
			// is left of the call is fine.
			b := min(B, n-taken)
			eff = k.bulkRound(c, m, b, totalW)
			taken += b
			rounds++
			bulkSteps += b
			bulkEffective += eff
		}
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

// roundSize recomputes the category weights at the current counts and
// decides the size of the next bulk round, before StepN caps it at the
// interactions left in the call. It returns B = 0 when the kernel must
// fall back to the exact path (a consumed state count within the safety
// margin of the round, weight arithmetic unavailable, or no category), and
// dead = true when no category has positive weight — the configuration can
// never change again under random pairing.
func (k *CollisionKernel) roundSize(c *multiset.Multiset, m int64) (B, totalW int64, dead bool) {
	if k.noBulk {
		// Bulk weights unavailable; the exact path decides liveness itself.
		return 0, 0, false
	}
	if len(k.cats) == 0 {
		// No non-silent transition exists at all: every interaction is null.
		return 0, 0, true
	}
	if k.inner.lambda > math.MaxInt64/m/(m+1) {
		return 0, 0, false
	}
	minCount := int64(math.MaxInt64)
	for i := range k.cats {
		t := &k.cats[i].t
		nq, nr := c.Count(t.Q), c.Count(t.R)
		pairs := nr
		if t.Q == t.R {
			pairs--
		}
		if nq <= 0 || pairs <= 0 {
			k.weights[i] = 0
			continue
		}
		k.weights[i] = nq * pairs * k.cats[i].perT
		totalW += k.weights[i]
		if nq < minCount {
			minCount = nq
		}
		if nr < minCount {
			minCount = nr
		}
	}
	if totalW == 0 {
		return 0, 0, true
	}
	margin := k.margin
	if margin < 2 { // < 2 could drive a consumed count negative
		margin = 2
	}
	B = minCount / margin
	if B > k.roundCap {
		B = k.roundCap
	}
	if B < k.minRound {
		return 0, totalW, false
	}
	return B, totalW, false
}

// bulkRound advances c by B interactions in one binomial + multinomial
// draw against the weights computed by roundSize, and returns the number of
// effective interactions applied.
func (k *CollisionKernel) bulkRound(c *multiset.Multiset, m, B, totalW int64) int64 {
	if k.met != nil {
		k.met.BatchRoundSize.Observe(B)
	}
	pEff := float64(totalW) / (float64(k.inner.lambda) * float64(m) * float64(m-1))
	effective := k.plan.binomial(k.rng, B, pEff)
	if effective == 0 {
		return 0
	}
	rem, wRem := effective, totalW
	for i := range k.cats {
		if rem == 0 {
			break
		}
		w := k.weights[i]
		if w == 0 {
			continue
		}
		var e int64
		if w >= wRem {
			e = rem // last positive-weight category absorbs the remainder
		} else {
			e = binomial(k.rng, rem, float64(w)/float64(wRem))
		}
		if e > 0 {
			t := k.cats[i].t
			k.addDelta(t.Q, -e)
			k.addDelta(t.R, -e)
			k.addDelta(t.Q2, e)
			k.addDelta(t.R2, e)
			if k.onFireN != nil {
				k.onFireN(t, e)
			}
		}
		rem -= e
		wRem -= w
	}
	for _, s := range k.touched {
		if d := k.deltas[s]; d != 0 {
			c.Add(s, d)
		}
		k.deltas[s] = 0
		k.mark[s] = false
	}
	k.touched = k.touched[:0]
	// The bulk mutation bypassed the exact path's Fenwick/weight
	// bookkeeping; detach so the next exact step rebuilds from counts.
	if k.inner.attached == c {
		k.inner.attached = nil
	}
	return effective
}

func (k *CollisionKernel) addDelta(s int, d int64) {
	if !k.mark[s] {
		k.mark[s] = true
		k.touched = append(k.touched, s)
	}
	k.deltas[s] += d
}

// binomialExactCutoff is the expected-count threshold below which binomial
// draws are taken exactly (by counting geometric inter-success gaps, O(mean)
// draws) rather than by the continuity-corrected normal approximation. 64
// keeps the approximation's per-draw error ~O(1/√(np(1-p))) ≲ 5% while the
// exact branch stays cheap.
const binomialExactCutoff = 64

// binomial draws from Binomial(n, p): exactly for small expected success or
// failure counts, and via the continuity-corrected normal approximation in
// the bulk regime (where the central limit bound is tight and the kernel's
// statistical contract is distributional, not exact).
func binomial(rng source, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean <= binomialExactCutoff {
		return binomialGeometric(rng, n, p)
	}
	if float64(n)-mean <= binomialExactCutoff {
		return n - binomialGeometric(rng, n, 1-p)
	}
	sd := math.Sqrt(mean * (1 - p))
	v := int64(math.Floor(mean + sd*gauss(rng) + 0.5))
	if v < 0 {
		return 0
	}
	if v > n {
		return n
	}
	return v
}

// binomialGeometric counts successes among n Bernoulli(p) trials, 0 < p < 1,
// by summing geometric inter-success gaps — exact, O(successes) random
// draws. Each gap is geometricSkip's inverse transform, with log1p(−p) taken
// once per call.
func binomialGeometric(rng source, n int64, p float64) int64 {
	return binomialGaps(rng, n, math.Log1p(-p), rng.Float64())
}

// binomialGaps is binomialGeometric's loop for l = log1p(−p), given the
// first uniform draw u.
func binomialGaps(rng source, n int64, l, u float64) int64 {
	var successes, pos int64
	for {
		g := int64(math.MaxInt64) // P(U=0) is 0 in the real-valued model
		if u != 0 {
			if f := math.Log(u) / l; f < float64(math.MaxInt64) {
				g = int64(f)
			}
		}
		if g >= n-pos { // the remaining trials are all failures
			return successes
		}
		pos += g + 1
		successes++
		if pos >= n {
			return successes
		}
		u = rng.Float64()
	}
}

// zeroBand is the relative margin binomialPlan keeps below (1−p)ⁿ.
const zeroBand = 0x1p-20

// binomialPlan is binomial with a memo for its exact branch at one (n, p):
// l = log1p(−p) and the threshold z = exp(n·l)·(1 − 2⁻²⁰). A first uniform
// draw u < z yields zero successes without a logarithm; any other u goes
// down binomialGaps with the same u, so every result and every draw is
// binomial's.
//
// Why u < z implies binomial's own zero, g = ⌊fl(fl(log u)/l)⌋ ≥ n: the
// memo serves p ≤ 1/2 with n·p ≤ 64, where |l| ≤ 2·ln 2·p, so |n·l| ≤ 89
// and z is a normal float. The three roundings in z (the product n·l, Exp,
// the scaling) move log z by less than 89·2⁻⁵³ + 2·2⁻⁵² < 2⁻⁴⁵ from
// n·l + log(1 − 2⁻²⁰) < n·l − 2⁻²⁰. So log u < n·l − 2⁻²¹, and, l being
// negative, log(u)/l > n·(1 + 2⁻²¹/|n·l|) > n·(1 + 2⁻²⁸). fl(log u) and the
// division add two roundings, a relative error below 2⁻⁵¹, so the computed
// quotient still reaches n: the band exceeds the rounding it has to absorb
// by more than six orders of magnitude.
type binomialPlan struct {
	n    int64
	p    float64
	l, z float64
}

// binomial draws from Binomial(n, p) exactly as the package-level binomial
// does, from the same draws.
func (bp *binomialPlan) binomial(rng source, n int64, p float64) int64 {
	if n <= 0 || p <= 0 || !(p <= 0.5 && float64(n)*p <= binomialExactCutoff) {
		return binomial(rng, n, p)
	}
	if n != bp.n || p != bp.p {
		l := math.Log1p(-p)
		*bp = binomialPlan{n: n, p: p, l: l, z: math.Exp(float64(n)*l) * (1 - zeroBand)}
	}
	u := rng.Float64()
	if u < bp.z {
		return 0
	}
	return binomialGaps(rng, n, bp.l, u)
}

// gauss draws a standard normal deviate by Box–Muller from the scheduler's
// shared randomness source.
func gauss(rng source) float64 {
	u1 := rng.Float64()
	if u1 == 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := rng.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
