package protocol

import (
	"fmt"
	"sort"
)

// SupportClosure computes an over-approximation of the states that can ever
// be occupied, starting from populations over the input states: the least
// set S ⊇ I closed under transitions (if q, r ∈ S and (q, r ↦ q', r') ∈ δ
// then q', r' ∈ S). Counting is ignored (a transition with q = r is assumed
// fireable whenever q ∈ S), so the closure may include states no real run
// reaches — but every state outside it is certainly unreachable from every
// initial configuration of every size.
func (p *Protocol) SupportClosure() []int {
	inSet := make([]bool, len(p.States))
	for _, i := range p.Input {
		inSet[i] = true
	}
	for changed := true; changed; {
		changed = false
		for _, t := range p.Transitions {
			if inSet[t.Q] && inSet[t.R] {
				if !inSet[t.Q2] {
					inSet[t.Q2] = true
					changed = true
				}
				if !inSet[t.R2] {
					inSet[t.R2] = true
					changed = true
				}
			}
		}
	}
	var out []int
	for i, ok := range inSet {
		if ok {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// Reduce returns a protocol with the states outside the support closure
// removed (and all transitions mentioning them dropped). The reduced
// protocol has identical behaviour on every initial configuration: removed
// states can never be occupied. Reduce is useful after generic
// constructions (products, conversions) that materialise states no run
// uses.
func Reduce(p *Protocol) (*Protocol, int, error) {
	if err := p.Validate(); err != nil {
		return nil, 0, fmt.Errorf("reduce: %w", err)
	}
	keep := p.SupportClosure()
	remap := make([]int32, len(p.States))
	for i := range remap {
		remap[i] = -1
	}
	for newIdx, oldIdx := range keep {
		remap[oldIdx] = int32(newIdx)
	}
	out := &Protocol{
		Name:      p.Name + "-reduced",
		States:    make([]string, len(keep)),
		Accepting: make([]bool, len(keep)),
	}
	for newIdx, oldIdx := range keep {
		out.States[newIdx] = p.States[oldIdx]
		out.Accepting[newIdx] = p.Accepting[oldIdx]
	}
	for _, i := range p.Input {
		out.Input = append(out.Input, int(remap[i]))
	}
	fireable := 0
	for _, t := range p.Transitions {
		if remap[t.Q] >= 0 && remap[t.R] >= 0 {
			fireable++
		}
	}
	out.Transitions = make([]Transition, 0, fireable)
	for _, t := range p.Transitions {
		if remap[t.Q] < 0 || remap[t.R] < 0 {
			continue // can never fire
		}
		out.Transitions = append(out.Transitions, Transition{
			Q: remap[t.Q], R: remap[t.R], Q2: remap[t.Q2], R2: remap[t.R2],
		})
	}
	return out, len(p.States) - len(keep), nil
}
