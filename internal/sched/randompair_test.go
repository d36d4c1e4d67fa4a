package sched

import (
	"fmt"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// RandomPair is the uniform random pairwise scheduler: each step picks an
// ordered pair of distinct agents uniformly at random; if one or more
// transitions match their states, one of those fires (uniformly at random);
// otherwise the step is a null interaction. It is the reference sampler the
// conformance and equivalence suites compare the count-based samplers
// against (BatchRandomPair.Step draws its random stream one for one);
// simulations draw the same law from BatchRandomPair.
type RandomPair struct {
	p     *protocol.Protocol
	rng   source
	pairs *protocol.Stepper
}

var _ Scheduler = (*RandomPair)(nil)

// newRandomPair builds a RandomPair scheduler for protocol p.
func newRandomPair(p *protocol.Protocol, rng source) *RandomPair {
	return &RandomPair{p: p, rng: rng, pairs: protocol.NewStepper(p)}
}

// sampleAgent picks an agent uniformly from c, returning its state index.
// It panics if c is empty.
func sampleAgent(rng source, c *multiset.Multiset, exclude int, excludeOne bool) int {
	size := c.Size()
	if excludeOne {
		size--
	}
	if size <= 0 {
		panic(fmt.Sprintf("sched: cannot sample an agent from a population of %d", size))
	}
	target := rng.Int63n(size)
	for i := 0; i < c.Len(); i++ {
		n := c.Count(i)
		if excludeOne && i == exclude {
			n--
		}
		if target < n {
			return i
		}
		target -= n
	}
	panic("sched: sampling walked off the end of the configuration")
}

// Step implements Scheduler. It requires |c| ≥ 2.
func (s *RandomPair) Step(c *multiset.Multiset) bool {
	q := sampleAgent(s.rng, c, 0, false)
	r := sampleAgent(s.rng, c, q, true)
	candidates := s.pairs.Candidates(q, r)
	if len(candidates) == 0 {
		return false
	}
	t := candidates[s.rng.Intn(len(candidates))]
	if t.IsSilent() {
		return false
	}
	s.p.Apply(c, t)
	return true
}

// chainProtocol builds a null-interaction-dominated protocol with support
// size k+1: a single leader L cycles each follower F_i to F_{i+1}; any pair
// of followers is null, so with one leader among m agents only ≈ 2/m of
// ordered pairs are reactive.
func chainProtocol(b *testing.B, k int) (*protocol.Protocol, *multiset.Multiset) {
	b.Helper()
	pb := protocol.NewBuilder(fmt.Sprintf("chain%d", k))
	followers := make([]string, k)
	for i := range followers {
		followers[i] = fmt.Sprintf("F%d", i)
	}
	pb.Input(append([]string{"L"}, followers...)...)
	for i := range followers {
		pb.Transition("L", followers[i], "L", followers[(i+1)%k])
	}
	pb.Accepting("L")
	p, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, k+1)
	counts[0] = 1 // one leader
	for i := 1; i <= k; i++ {
		counts[i] = 8
	}
	c, err := p.InitialConfig(counts...)
	if err != nil {
		b.Fatal(err)
	}
	return p, c
}

// BenchmarkRandomPairStep is the per-step baseline: one uniform random-pair
// interaction of the reference sampler per iteration, across support sizes.
// The root BenchmarkBatchStepN drives the same protocols through the exact
// sampler's batched path.
func BenchmarkRandomPairStep(b *testing.B) {
	for _, k := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("support=%d", k+1), func(b *testing.B) {
			p, c := chainProtocol(b, k)
			s := newRandomPair(p, NewRand(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step(c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/interaction")
		})
	}
}
