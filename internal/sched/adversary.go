package sched

// Adversarial-but-fair edge-selection policies of GraphScheduler. The
// paper's results quantify over *fair* runs, not just uniformly random ones
// (§3): any schedule in which every persistently enabled step eventually
// happens must reach the same stable consensus. These policies probe that
// claim from the hostile side while staying inside the fairness condition:
//
//   - PolicyRoundRobin: fixed cyclic edge sweeps — every alive edge is
//     selected once per sweep, so delays are bounded by |E|.
//   - PolicyStarvation: the max-delay adversary — it starves every edge
//     for as long as its bound allows, then serves the oldest. Delays are
//     bounded by bound+|E| (once an edge crosses the bound it is served
//     before any edge that crossed later, and at most |E| forced edges can
//     queue ahead of it), so runs remain fair.
//   - PolicyAdversary: the seed-driven worst-case chooser — with
//     probability advEpsilon it plays a uniform step (every enabled option
//     therefore recurs with positive probability: fair a.s.); otherwise it
//     fires the enabled option that keeps the consensus output as close to
//     mixed as possible, delaying stabilisation as long as fairness lets it.

import "repro/internal/protocol"

// nextInSweep is PolicyRoundRobin's choice: the next alive edge in cyclic
// index order. Orientation and candidate choice stay uniform, so only the
// edge sequence is adversarial. Callers guard aliveE > 0.
func (g *GraphScheduler) nextInSweep() int {
	for {
		e := g.cursor % len(g.ends)
		g.cursor++
		if g.weights[e] == 1 {
			return e
		}
	}
}

// maxDelayEdge is PolicyStarvation's choice: the youngest alive edge (the
// one selected most recently), unless some alive edge has been starved for
// at least bound steps — then the oldest such edge. Edge choice is fully
// deterministic; only orientation and candidate draws consume randomness.
// Callers guard aliveE > 0.
func (g *GraphScheduler) maxDelayEdge() int {
	forced, fresh := -1, -1
	var forcedAge, freshAge int64
	for e, w := range g.weights {
		if w != 1 {
			continue
		}
		age := g.step - g.lastSel[e]
		if age >= g.bound && age > forcedAge {
			forced, forcedAge = e, age
		}
		if fresh == -1 || age < freshAge {
			fresh, freshAge = e, age
		}
	}
	if forced >= 0 {
		return forced
	}
	return fresh
}

type advOption struct {
	e, ti   int
	swapped bool
}

// worstCaseStep is PolicyAdversary's non-mixing decision: it enumerates
// every enabled (edge, orientation, transition) option and fires one
// minimising |#accepting − #non-accepting| after the step — i.e. it steers
// the population towards (or pins it at) a mixed output for as long as it
// can. Ties break by a seeded uniform choice, so different seeds explore
// different worst-case schedules. When nothing is enabled the decision is a
// null step.
func (g *GraphScheduler) worstCaseStep() bool {
	total := int64(len(g.states))
	g.opts = g.opts[:0]
	best := int64(1) << 62
	consider := func(e, ti int, t protocol.Transition, swapped bool) {
		acc := g.p.Accepting
		after := g.accCount +
			accDelta(acc[t.Q2]) + accDelta(acc[t.R2]) - accDelta(acc[t.Q]) - accDelta(acc[t.R])
		score := 2*after - total
		if score < 0 {
			score = -score
		}
		if score < best {
			best = score
			g.opts = g.opts[:0]
		}
		if score == best {
			g.opts = append(g.opts, advOption{e: e, ti: ti, swapped: swapped})
		}
	}
	for e, w := range g.weights {
		if w != 1 {
			continue
		}
		a, b := g.ends[e][0], g.ends[e][1]
		qa, qb := g.states[a], g.states[b]
		for ti, t := range g.pairs.Fire(qa, qb) {
			consider(e, ti, t, false)
		}
		if qa != qb {
			for ti, t := range g.pairs.Fire(qb, qa) {
				consider(e, ti, t, true)
			}
		}
	}
	if len(g.opts) == 0 {
		return false // nothing enabled anywhere: a null decision
	}
	pick := g.opts[g.rng.Intn(len(g.opts))]
	g.selectEdge(pick.e)
	a, b := g.ends[pick.e][0], g.ends[pick.e][1]
	if pick.swapped {
		a, b = b, a
	}
	t := g.pairs.Fire(g.states[a], g.states[b])[pick.ti]
	g.apply(a, b, t)
	return true
}
