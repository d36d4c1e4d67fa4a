package protocol

import (
	"fmt"
)

// BoolOp combines the outputs of two protocols in a product construction.
type BoolOp int

// Boolean combinators.
const (
	OpAnd BoolOp = iota + 1
	OpOr
)

// String implements fmt.Stringer.
func (o BoolOp) String() string {
	switch o {
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	default:
		return fmt.Sprintf("BoolOp(%d)", int(o))
	}
}

func (o BoolOp) apply(a, b bool) bool {
	if o == OpAnd {
		return a && b
	}
	return a || b
}

// Product builds the classic product protocol deciding the boolean
// combination of two predicates over the same inputs (the closure half of
// Angluin et al.'s characterisation, referenced in §1: population protocols
// decide exactly the Presburger predicates, which are closed under ∧/∨).
//
// Each agent simultaneously runs both protocols: states are pairs (q₁, q₂),
// and when two agents meet, a transition of p1 on the first components and
// a transition of p2 on the second components fire together (either side
// may idle, so the protocols interleave freely — this is necessary for
// fairness in each component). The inputs of p1 and p2 are paired up
// positionally: both protocols must have the same number of input states,
// and input i of the product puts agents into (I1[i], I2[i]).
//
// An agent accepts when the pair (accepting₁, accepting₂) satisfies op.
func Product(name string, p1, p2 *Protocol, op BoolOp) (*Protocol, error) {
	if err := p1.Validate(); err != nil {
		return nil, fmt.Errorf("product: %w", err)
	}
	if err := p2.Validate(); err != nil {
		return nil, fmt.Errorf("product: %w", err)
	}
	if len(p1.Input) != len(p2.Input) {
		return nil, fmt.Errorf("product: input arity mismatch (%d vs %d)",
			len(p1.Input), len(p2.Input))
	}
	if err := CheckNumStates(name, len(p1.States)*len(p2.States)); err != nil {
		return nil, fmt.Errorf("product: %w", err)
	}
	b := NewBuilder(name)
	pair := func(q1, q2 int32) string {
		return p1.States[q1] + "×" + p2.States[q2]
	}
	for q1 := range int32(len(p1.States)) {
		for q2 := range int32(len(p2.States)) {
			b.AcceptingIf(pair(q1, q2), op.apply(p1.Accepting[q1], p2.Accepting[q2]))
		}
	}
	for i := range p1.Input {
		b.Input(pair(int32(p1.Input[i]), int32(p2.Input[i])))
	}
	// Joint transitions: t1 on the first components and t2 on the second.
	for _, t1 := range p1.Transitions {
		for _, t2 := range p2.Transitions {
			b.Transition(
				pair(t1.Q, t2.Q), pair(t1.R, t2.R),
				pair(t1.Q2, t2.Q2), pair(t1.R2, t2.R2))
		}
	}
	// Interleaving: one side steps while the other idles. Without these, a
	// component could starve when the other has no enabled transition.
	for _, t1 := range p1.Transitions {
		for q2 := range int32(len(p2.States)) {
			for r2 := range int32(len(p2.States)) {
				b.Transition(
					pair(t1.Q, q2), pair(t1.R, r2),
					pair(t1.Q2, q2), pair(t1.R2, r2))
			}
		}
	}
	for _, t2 := range p2.Transitions {
		for q1 := range int32(len(p1.States)) {
			for r1 := range int32(len(p1.States)) {
				b.Transition(
					pair(q1, t2.Q), pair(r1, t2.R),
					pair(q1, t2.Q2), pair(r1, t2.R2))
			}
		}
	}
	return b.Build()
}

// ProductPredicate combines two predicates with op, matching Product's
// positional input pairing.
func ProductPredicate(pred1, pred2 Predicate, op BoolOp) Predicate {
	return func(in []int64) bool {
		return op.apply(pred1(in), pred2(in))
	}
}

// Negate returns the complement protocol deciding ¬φ: same states and
// transitions, accepting set flipped. A fair run stabilises to b in p iff
// it stabilises to ¬b in the complement, so this is the negation half of
// the boolean closure of §1.
func Negate(p *Protocol) (*Protocol, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("negate: %w", err)
	}
	out := &Protocol{
		Name:        "not-" + p.Name,
		States:      append([]string(nil), p.States...),
		Transitions: append([]Transition(nil), p.Transitions...),
		Input:       append([]int(nil), p.Input...),
		Accepting:   make([]bool, len(p.Accepting)),
	}
	for i, acc := range p.Accepting {
		out.Accepting[i] = !acc
	}
	return out, nil
}
