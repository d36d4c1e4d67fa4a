package sched

import (
	"math"

	"repro/internal/protocol"
)

// Channel is one reactive interaction channel of a protocol under the
// uniform random-pair law: a non-silent transition t together with the size
// of its candidate list #candidates(t.Q, t.R) (silent candidates included).
//
// The per-interaction firing probability of a channel at configuration C
// over m agents is
//
//	P(t) = C(Q)·(C(R)−[Q=R]) / (m·(m−1)·Candidates)
//
// — the probability of drawing the ordered agent pair times the uniform
// choice among the pair's candidates. Every sampler in this package is built
// on this law: BatchRandomPair realises it integrally (scaled by the lcm Λ
// of all candidate-list lengths), CollisionKernel tau-leaps whole rounds of
// it, and internal/fluid's mean-field drift is its m → ∞ limit
// a_t(x) = x_Q·x_R / Candidates per unit of parallel time.
type Channel struct {
	T protocol.Transition
	// Candidates is #candidates(T.Q, T.R): how many transitions (silent
	// ones included) share the channel's ordered state pair.
	Candidates int
}

// ReactiveChannels flattens p's non-silent transitions into channels, in the
// deterministic order every scheduler in this package samples them: ordered
// state pairs by first appearance in the transition declaration list, and
// candidates in declaration order within a pair. Sharing one enumeration is
// what keeps the exact sampler, the collision kernel and the fluid drift
// consistent with each other.
func ReactiveChannels(p *protocol.Protocol) []Channel {
	pairs := newPairRows(p)
	seen := make(map[pairKey]bool)
	var out []Channel
	for _, t := range p.Transitions {
		k := pairKey{int(t.Q), int(t.R)}
		if seen[k] {
			continue
		}
		seen[k] = true
		cands := pairs.get(k.q, k.r)
		for _, cand := range cands {
			if cand.IsSilent() {
				continue
			}
			out = append(out, Channel{T: cand, Candidates: len(cands)})
		}
	}
	return out
}

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
