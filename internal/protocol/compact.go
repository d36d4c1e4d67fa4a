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
// random scheduler: a step fires one of Stepper.Candidates(q, r), every
// transition sharing the ordered state pair, silent ones included, so
// removing them changes interaction probabilities (never the outcome set).
// The shrink pipeline therefore applies it only on the opt-in optimization
// path, gated by predicate-equivalence tests, never behind the back of the
// trace-exact differential harnesses.
//
// It runs in O(|δ| + |Q|) time (see firstOccurrences) and allocates no
// hash table.
func CompactTransitions(p *Protocol) (out *Protocol, silent, duplicates int, err error) {
	if err := p.Validate(); err != nil {
		return nil, 0, 0, fmt.Errorf("compact: %w", err)
	}
	if len(p.Transitions) > math.MaxInt32 {
		return nil, 0, 0, fmt.Errorf("compact: protocol %q: %d transitions exceed int32 positions",
			p.Name, len(p.Transitions))
	}
	keep, silent, duplicates := firstOccurrences(p.Transitions, len(p.States))
	kept := make([]Transition, 0, len(p.Transitions)-silent-duplicates)
	for i, t := range p.Transitions {
		if keep[i] {
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
	return out, silent, duplicates, nil
}

// firstOccurrences marks the first occurrence of every non-silent
// transition of ts, whose state indices lie in [0, n), and counts the
// silent and the repeated transitions. It stable-sorts the positions of
// the non-silent transitions by (Q, R, Q2, R2) with four counting-sort
// passes over n buckets, least significant field first, so equal
// transitions end adjacent and in their original order: the first of each
// run is the first occurrence. The four histograms do not depend on the
// order, so one sequential pass over ts fills them all.
func firstOccurrences(ts []Transition, n int) (keep []bool, silent, duplicates int) {
	pos := make([]int32, 0, len(ts))
	hist := make([]int32, 4*n) // field f's histogram is hist[f*n : (f+1)*n]
	for i, t := range ts {
		if t.IsSilent() {
			silent++
			continue
		}
		pos = append(pos, int32(i))
		hist[t.Q]++
		hist[n+int(t.R)]++
		hist[2*n+int(t.Q2)]++
		hist[3*n+int(t.R2)]++
	}
	sorted := make([]int32, len(pos))
	for f := 3; f >= 0; f-- {
		next := hist[f*n : (f+1)*n]
		sum := int32(0)
		for k, c := range next {
			next[k] = sum
			sum += c
		}
		for _, i := range pos {
			k := field(&ts[i], f)
			sorted[next[k]] = i
			next[k]++
		}
		pos, sorted = sorted, pos
	}
	keep = make([]bool, len(ts))
	for j, i := range pos {
		if j > 0 && ts[i] == ts[pos[j-1]] {
			duplicates++
			continue
		}
		keep[i] = true
	}
	return keep, silent, duplicates
}

// field returns t's f-th index in the order Q, R, Q2, R2.
func field(t *Transition, f int) int32 {
	switch f {
	case 0:
		return t.Q
	case 1:
		return t.R
	case 2:
		return t.Q2
	default:
		return t.R2
	}
}
