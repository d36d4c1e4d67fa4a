package protocol

import (
	"fmt"
	"math"
)

// CompactTransitions returns a protocol with silent transitions (both
// agents unchanged, in either pairing order) and exact duplicate
// transitions removed, preserving first occurrences in order. States,
// inputs and the accepting set are untouched.
//
// The compacted protocol has the same step relation on configurations —
// silent transitions never change a configuration and duplicates add
// nothing — so reachability, stable consensus, and the decided predicate
// are identical. What it does NOT preserve is the *law* of the uniform
// random scheduler: sched.ReactiveChannels counts every transition sharing
// an ordered state pair (silent ones included) when weighting a pair's
// outcome, so removing them changes interaction probabilities (never the
// outcome set). The shrink pipeline therefore applies it only on the
// opt-in optimization path, gated by predicate-equivalence tests, never
// behind the back of the trace-exact differential harnesses.
func CompactTransitions(p *Protocol) (out *Protocol, silent, duplicates int, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("compact: %w", err)
	}
	// Key transitions on two words, which the map hashes faster than the
	// 32-byte Transition; Validate bounds every index by len(p.States).
	if uint64(len(p.States)) > math.MaxUint32+1 {
		return nil, 0, 0, fmt.Errorf("compact: protocol %q: %d states do not fit 32-bit indices",
			p.Name, len(p.States))
	}
	type key struct{ pre, post uint64 }
	seen := make(map[key]bool, len(p.Transitions))
	kept := make([]Transition, 0, len(p.Transitions))
	for _, t := range p.Transitions {
		k := key{uint64(t.Q)<<32 | uint64(t.R), uint64(t.Q2)<<32 | uint64(t.R2)}
		switch {
		case t.IsSilent():
			silent++
		case seen[k]:
			duplicates++
		default:
			seen[k] = true
			kept = append(kept, t)
		}
	}
	out = &Protocol{
		Name:        p.Name + "-compact",
		States:      append([]string(nil), p.States...),
		Transitions: kept,
		Input:       append([]int(nil), p.Input...),
		Accepting:   append([]bool(nil), p.Accepting...),
	}
	if err := out.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("compact: produced an invalid protocol: %w", err)
	}
	return out, silent, duplicates, nil
}
