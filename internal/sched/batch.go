package sched

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// BatchScheduler is a Scheduler that can advance a configuration by many
// steps at once. StepN must be distributionally equivalent to n successive
// Step calls: the law of the configuration after StepN(c, n), and of the
// number of effective (configuration-changing) steps among the n, is
// identical to the per-step chain's. Implementations exploit that null
// interactions leave the configuration unchanged, so runs of them can be
// skipped without simulating each one.
type BatchScheduler interface {
	Scheduler
	// StepN performs n scheduling decisions on c, mutating it in place,
	// and returns how many of them changed the configuration.
	StepN(c *multiset.Multiset, n int64) (effective int64)
}

// BatchRandomPair is the exact uniform random-pair sampler: each step picks
// an ordered pair of distinct agents uniformly at random and fires one of
// the transitions matching their states uniformly at random, or none (a
// null interaction). It has a batched fast path and is exactly
// distribution-equivalent to the per-step reference sampler the tests keep
// (the scheduler-equivalence suite in this package verifies both a
// chi-squared firing-frequency bound and exact enumeration of single-step
// outcome distributions):
//
//   - Step samples both agents through an incrementally-maintained Fenwick
//     index over state counts, O(log |Q|) per draw instead of O(support).
//     Given the same random values it selects exactly the same agents as
//     the reference's linear scan over the counts.
//   - StepN additionally skips runs of guaranteed-null interactions: the
//     number of consecutive null steps before the next effective step is
//     Geometric(p_eff), where p_eff is the probability that a uniform
//     ordered agent pair fires a non-silent transition. One geometric draw
//     replaces the whole run, and the effective step is sampled from the
//     exact conditional distribution over (pair, transition). In the
//     converted-machine regime — a single instruction-pointer agent among m
//     others, p_eff = Θ(1/m) — this turns Θ(m) sampled interactions per
//     useful step into O(1).
//
// A BatchRandomPair attaches to the first configuration it steps and keeps
// its index synchronised through its own mutations. Mutating the attached
// configuration externally between calls is not supported; step a fresh
// configuration (or a clone) through a fresh scheduler instead.
type BatchRandomPair struct {
	p     *protocol.Protocol
	rng   source
	pairs *protocol.Stepper

	// reactive lists the reactive keys, the ordered state pairs with a
	// non-silent candidate: drawing one is the only way a step can change
	// the configuration. factor[i] is the weight of key i per ordered agent
	// pair, Λ·#fire/#candidates, where Λ is the lcm of all candidate-list
	// lengths. Scaling by Λ keeps the sampling weights integral, so the
	// fast path stays exactly equivalent to the per-step sampler (no
	// floating-point rounding in the categorical draw).
	reactive []protocol.ReactivePair
	factor   []int64
	// byState[s] lists the indices of reactive keys mentioning state s as
	// initiator or responder; firing a transition only re-weights those.
	byState [][]int
	lambda  int64

	attached *multiset.Multiset
	fen      fenwick
	weights  []int64 // current weight per reactive key
	totalW   int64   // Σ weights; p_eff = totalW / (Λ·m·(m−1))

	// skipThreshold bounds when the geometric null-skip engages: whenever
	// p_eff < skipThreshold. Below it, one geometric draw replaces ~1/p_eff
	// per-step samples; above it, per-step Fenwick sampling is cheaper.
	// The equivalence tests pin it to 0 (never skip) or 1 (always skip) to
	// exercise each path in isolation; both are exact.
	skipThreshold float64
	// noSkip disables the fast path when the integer weight arithmetic
	// would overflow int64 (gigantic populations or degenerate lcm).
	noSkip bool
	onFire func(protocol.Transition)
	// met is the telemetry group captured at construction; nil when
	// telemetry is disabled. Step observes each decision; StepN publishes
	// its step, null and effective counts once per call and observes each
	// geometric draw.
	met *obs.SchedMetrics
}

var _ BatchScheduler = (*BatchRandomPair)(nil)

// defaultSkipThreshold trades the O(|reactive|) cost of one conditional
// effective-step draw against ~1/p_eff saved per-step samples.
const defaultSkipThreshold = 0.25

// maxLambda caps the lcm of candidate-list lengths; protocols exceeding it
// (only adversarial inputs, e.g. from the fuzzer) fall back to the per-step
// path, which is always available.
const maxLambda = 1 << 20

// NewBatchRandomPair builds the batched uniform random-pair scheduler.
func NewBatchRandomPair(p *protocol.Protocol, rng *rand.Rand) *BatchRandomPair {
	return newBatchRandomPair(p, rng)
}

func newBatchRandomPair(p *protocol.Protocol, rng source) *BatchRandomPair {
	pairs := protocol.NewStepper(p)
	s := &BatchRandomPair{
		p:             p,
		rng:           rng,
		pairs:         pairs,
		reactive:      pairs.Reactive(),
		byState:       make([][]int, p.NumStates()),
		lambda:        1,
		skipThreshold: defaultSkipThreshold,
		met:           obs.Sched(),
	}
	for _, k := range s.reactive {
		s.lambda = lcm(s.lambda, int64(k.Candidates))
		if s.lambda > maxLambda {
			s.noSkip = true
			break
		}
	}
	s.factor = make([]int64, len(s.reactive))
	if !s.noSkip {
		for i, k := range s.reactive {
			s.factor[i] = s.lambda / int64(k.Candidates) * int64(len(k.Fire))
		}
	}
	// Each state's key list is carved from one backing array.
	n := make([]int, p.NumStates())
	for _, k := range s.reactive {
		n[k.Q]++
		if k.R != k.Q {
			n[k.R]++
		}
	}
	backing := make([]int, 2*len(s.reactive))
	for st, cnt := range n {
		s.byState[st] = backing[:0:cnt]
		backing = backing[cnt:]
	}
	for i, k := range s.reactive {
		s.byState[k.Q] = append(s.byState[k.Q], i)
		if k.R != k.Q {
			s.byState[k.R] = append(s.byState[k.R], i)
		}
	}
	s.weights = make([]int64, len(s.reactive))
	return s
}

func lcm(a, b int64) int64 {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// attach (re)builds the Fenwick index and reactive weights for c, in place:
// the collision kernel hands configurations back after every bulk round, so
// a re-attach must not allocate. It is a no-op when c is the configuration
// the scheduler is already tracking.
func (s *BatchRandomPair) attach(c *multiset.Multiset) {
	if s.attached == c {
		return
	}
	if s.met != nil {
		s.met.FenwickRebuilds.Inc()
	}
	s.attached = c
	s.fen.reset(c.Len(), c.Count)
	// The skip path needs Λ·m·(m−1) and Λ·pair-count products in int64.
	if m := c.Size(); m > 0 && s.lambda > math.MaxInt64/m/(m+1) {
		s.noSkip = true
	}
	s.totalW = 0
	if s.noSkip {
		return
	}
	for i := range s.reactive {
		s.weights[i] = s.keyWeight(c, i)
		s.totalW += s.weights[i]
	}
}

// Quiescent reports whether the attached configuration can never change
// again: no non-silent transition is enabled in it. The reactive weights
// answer it in O(1) (their sum is zero exactly when no reactive pair has
// agents); without them (noSkip) it scans the transition table. With no
// configuration attached it reports false.
func (s *BatchRandomPair) Quiescent() bool {
	switch {
	case s.attached == nil:
		return false
	case s.noSkip:
		return !s.p.AnyEnabled(s.attached)
	default:
		return s.totalW == 0
	}
}

// keyWeight is the current sampling weight of reactive key i: the number of
// ordered agent pairs in its states, times Λ·#fire/#candidates.
func (s *BatchRandomPair) keyWeight(c *multiset.Multiset, i int) int64 {
	k := &s.reactive[i]
	nq := c.Count(k.Q)
	nr := c.Count(k.R)
	if k.Q == k.R {
		nr--
	}
	if nq <= 0 || nr <= 0 {
		return 0
	}
	return nq * nr * s.factor[i]
}

// apply fires t on c and keeps the Fenwick index and reactive weights
// synchronised. Only the keys of states whose count changed are
// re-weighted: a key's weight reads the counts of its two states, so a
// catalyst (a state consumed and produced again, as X in X,y → X,x) leaves
// the weights of its keys as they were.
func (s *BatchRandomPair) apply(c *multiset.Multiset, t protocol.Transition) {
	s.p.Apply(c, t)
	touched := [4]int32{t.Q, t.R, t.Q2, t.R2}
	for i, st := range touched {
		dup := false
		for _, prev := range touched[:i] {
			if prev == st {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		// Net count delta of st across the firing.
		var delta int64
		if st == t.Q {
			delta--
		}
		if st == t.R {
			delta--
		}
		if st == t.Q2 {
			delta++
		}
		if st == t.R2 {
			delta++
		}
		if delta == 0 {
			continue
		}
		s.fen.add(int(st), delta)
		if s.noSkip {
			continue
		}
		for _, ki := range s.byState[st] {
			w := s.keyWeight(c, ki)
			s.totalW += w - s.weights[ki]
			s.weights[ki] = w
		}
	}
	if s.onFire != nil {
		s.onFire(t)
	}
}

// Step implements Scheduler with O(log |Q|) agent sampling. It consumes the
// same random draws as the per-step reference sampler and maps them to the
// same outcome.
func (s *BatchRandomPair) Step(c *multiset.Multiset) bool {
	s.attach(c)
	m := c.Size()
	if m < 2 {
		panic(fmt.Sprintf("sched: cannot sample an agent pair from a population of %d", m))
	}
	fired := s.step(c, m)
	if s.met != nil {
		s.met.Steps.Inc()
		if fired {
			s.met.Effective.Inc()
		}
	}
	return fired
}

// step is one per-step decision on the attached configuration c of m
// agents, without telemetry.
func (s *BatchRandomPair) step(c *multiset.Multiset, m int64) bool {
	q := s.fen.find(s.rng.Int63n(m))
	// Exclude one agent of state q while drawing the responder, exactly
	// like the per-step reference sampler.
	s.fen.add(q, -1)
	r := s.fen.find(s.rng.Int63n(m - 1))
	s.fen.add(q, 1)
	candidates := s.pairs.Candidates(q, r)
	if len(candidates) == 0 {
		return false
	}
	t := candidates[s.rng.Intn(len(candidates))]
	if t.IsSilent() {
		return false
	}
	s.apply(c, t)
	return true
}

// StepN implements BatchScheduler. Null-interaction runs are collapsed into
// geometric draws whenever the effective-step probability is below the skip
// threshold; otherwise steps are taken one by one through the Fenwick
// sampler. Both regimes produce the per-step chain's exact distribution.
func (s *BatchRandomPair) StepN(c *multiset.Multiset, n int64) int64 {
	s.attach(c)
	m := c.Size()
	if m < 2 {
		panic(fmt.Sprintf("sched: cannot sample an agent pair from a population of %d", m))
	}
	// nulls counts the null steps skipped analytically; every step of the
	// call is published as one Steps observation at the end.
	var effective, taken, nulls int64
	for taken < n {
		if s.noSkip {
			if s.step(c, m) {
				effective++
			}
			taken++
			continue
		}
		if s.totalW == 0 {
			// No reactive pair is enabled: the configuration can never
			// change again under random pairing; the rest of the batch is
			// all null interactions.
			nulls += n - taken
			break
		}
		pEff := float64(s.totalW) / float64(s.lambda*m*(m-1))
		if pEff >= s.skipThreshold {
			if s.step(c, m) {
				effective++
			}
			taken++
			continue
		}
		// Skip the run of nulls before the next effective step in one
		// geometric draw.
		skip := geometricSkip(s.rng, pEff)
		if s.met != nil {
			s.met.GeomSkips.Observe(skip)
		}
		if skip >= n-taken {
			// The batch ends inside the null run: only n−taken of the
			// drawn nulls fall inside it.
			nulls += n - taken
			break
		}
		nulls += skip
		taken += skip + 1
		// Sample the effective step from the exact conditional law:
		// weight(key, t) ∝ C(q)·(C(r)−[q=r]) / #candidates(q, r) over
		// non-silent candidates t, realised integrally via Λ.
		target := s.rng.Int63n(s.totalW)
		for ki, w := range s.weights {
			if target >= w {
				target -= w
				continue
			}
			fire := s.reactive[ki].Fire
			s.apply(c, fire[int(target/(w/int64(len(fire))))])
			break
		}
		effective++
	}
	if s.met != nil {
		s.met.Steps.Add(n)
		s.met.NullsSkipped.Add(nulls)
		s.met.Effective.Add(effective)
	}
	return effective
}

// geometricSkip draws the number of consecutive null interactions before
// the next effective step, i.e. G ~ Geometric(p) with P(G=g) = (1−p)^g·p,
// by inverse transform.
func geometricSkip(rng source, p float64) int64 {
	if p >= 1 {
		return 0
	}
	u := rng.Float64()
	if u == 0 {
		return math.MaxInt64 // P(U=0) is 0 in the real-valued model
	}
	g := math.Log(u) / math.Log1p(-p)
	if g >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return int64(g)
}
