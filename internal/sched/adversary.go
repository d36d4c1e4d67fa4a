package sched

// Adversarial-but-fair edge-selection policies over the graph core. The
// paper's results quantify over *fair* runs, not just uniformly random ones
// (§3): any schedule in which every persistently enabled step eventually
// happens must reach the same stable consensus. These schedulers probe that
// claim from the hostile side while staying inside the fairness condition:
//
//   - RoundRobinScheduler: fixed cyclic edge sweeps — every alive edge is
//     selected once per sweep, so delays are bounded by |E|.
//   - StarvationScheduler: the max-delay adversary — it starves every edge
//     for as long as its bound allows, then serves the oldest. Delays are
//     bounded by bound+|E| (once an edge crosses the bound it is served
//     before any edge that crossed later, and at most |E| forced edges can
//     queue ahead of it), so runs remain fair.
//   - AdversaryScheduler: the seed-driven worst-case chooser — with
//     probability ε it plays a uniform step (every enabled option therefore
//     recurs with positive probability: fair a.s.); otherwise it fires the
//     enabled option that keeps the consensus output as close to mixed as
//     possible, delaying stabilisation as long as fairness lets it.

import (
	"fmt"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// RoundRobinScheduler sweeps the alive edges in cyclic index order.
// Orientation and candidate choice stay uniform, so only the edge sequence
// is adversarial.
type RoundRobinScheduler struct {
	graphCore
	cursor int
}

var _ Scheduler = (*RoundRobinScheduler)(nil)

// newRoundRobin builds the round-robin edge-sweep scheduler.
func newRoundRobin(p *protocol.Protocol, topo *Topology, rng source, faults *Faults) (*RoundRobinScheduler, error) {
	core, err := newGraphCore(p, topo, rng, faults)
	if err != nil {
		return nil, err
	}
	return &RoundRobinScheduler{graphCore: core}, nil
}

// Step implements Scheduler.
func (s *RoundRobinScheduler) Step(c *multiset.Multiset) bool {
	if s.attached != c {
		s.cursor = 0
	}
	s.attach(c)
	s.beginStep()
	if s.aliveE == 0 {
		return false
	}
	for {
		e := s.cursor % len(s.ends)
		s.cursor++
		if s.weights[e] == 1 {
			return s.fireEdge(e)
		}
	}
}

// StarvationScheduler is the max-delay adversary: each step it re-serves the
// youngest alive edge (the one selected most recently), unless some alive
// edge has been starved for at least bound steps — then the oldest such edge
// is served instead. Edge choice is fully deterministic; only orientation
// and candidate draws consume randomness.
type StarvationScheduler struct {
	graphCore
	bound int64
}

var _ Scheduler = (*StarvationScheduler)(nil)

// newStarvation builds the max-delay scheduler. bound ≤ 0 defaults to
// 2·|E|+64.
func newStarvation(p *protocol.Protocol, topo *Topology, rng source, faults *Faults, bound int64) (*StarvationScheduler, error) {
	core, err := newGraphCore(p, topo, rng, faults)
	if err != nil {
		return nil, err
	}
	if bound <= 0 {
		bound = 2*int64(len(topo.Edges)) + 64
	}
	return &StarvationScheduler{graphCore: core, bound: bound}, nil
}

// Step implements Scheduler.
func (s *StarvationScheduler) Step(c *multiset.Multiset) bool {
	s.attach(c)
	s.beginStep()
	if s.aliveE == 0 {
		return false
	}
	forced, fresh := -1, -1
	var forcedAge, freshAge int64
	for e, w := range s.weights {
		if w != 1 {
			continue
		}
		age := s.step - s.lastSel[e]
		if age >= s.bound && age > forcedAge {
			forced, forcedAge = e, age
		}
		if fresh == -1 || age < freshAge {
			fresh, freshAge = e, age
		}
	}
	e := fresh
	if forced >= 0 {
		e = forced
	}
	return s.fireEdge(e)
}

// AdversaryScheduler is the seed-driven worst-case chooser. With probability
// epsilon it takes a uniform graph step; otherwise it enumerates every
// enabled (edge, orientation, transition) option and fires one minimising
// |#accepting − #non-accepting| after the step — i.e. it steers the
// population towards (or pins it at) a mixed output for as long as it can.
// Ties break by a seeded uniform choice, so different seeds explore
// different worst-case schedules. When nothing is enabled the decision is a
// null step.
type AdversaryScheduler struct {
	graphCore
	epsilon float64
	opts    []advOption // scratch
}

type advOption struct {
	e, ti   int
	swapped bool
}

var _ Scheduler = (*AdversaryScheduler)(nil)

// newAdversary builds the worst-case chooser. epsilon 0 defaults to 1/8;
// it is the uniform-mixing probability that keeps runs fair a.s.
func newAdversary(p *protocol.Protocol, topo *Topology, rng source, faults *Faults, epsilon float64) (*AdversaryScheduler, error) {
	core, err := newGraphCore(p, topo, rng, faults)
	if err != nil {
		return nil, err
	}
	if epsilon == 0 {
		epsilon = 0.125
	}
	if epsilon < 0 || epsilon >= 1 {
		return nil, fmt.Errorf("sched: adversary epsilon must lie in (0, 1), got %v", epsilon)
	}
	return &AdversaryScheduler{graphCore: core, epsilon: epsilon}, nil
}

// Step implements Scheduler.
func (s *AdversaryScheduler) Step(c *multiset.Multiset) bool {
	s.attach(c)
	s.beginStep()
	if s.aliveE == 0 {
		return false
	}
	if s.rng.Float64() < s.epsilon {
		return s.fireEdge(s.sampleEdge())
	}
	total := int64(len(s.states))
	s.opts = s.opts[:0]
	best := int64(1) << 62
	consider := func(e, ti int, t protocol.Transition, swapped bool) {
		acc := s.p.Accepting
		after := s.accCount +
			accDelta(acc[t.Q2]) + accDelta(acc[t.R2]) - accDelta(acc[t.Q]) - accDelta(acc[t.R])
		score := 2*after - total
		if score < 0 {
			score = -score
		}
		if score < best {
			best = score
			s.opts = s.opts[:0]
		}
		if score == best {
			s.opts = append(s.opts, advOption{e: e, ti: ti, swapped: swapped})
		}
	}
	for e, w := range s.weights {
		if w != 1 {
			continue
		}
		a, b := s.ends[e][0], s.ends[e][1]
		qa, qb := s.states[a], s.states[b]
		for ti, t := range s.pairs.Fire(qa, qb) {
			consider(e, ti, t, false)
		}
		if qa != qb {
			for ti, t := range s.pairs.Fire(qb, qa) {
				consider(e, ti, t, true)
			}
		}
	}
	if len(s.opts) == 0 {
		return false // nothing enabled anywhere: a null decision
	}
	pick := s.opts[s.rng.Intn(len(s.opts))]
	s.selectEdge(pick.e)
	a, b := s.ends[pick.e][0], s.ends[pick.e][1]
	if pick.swapped {
		a, b = b, a
	}
	t := s.pairs.Fire(s.states[a], s.states[b])[pick.ti]
	s.apply(a, b, t)
	return true
}
