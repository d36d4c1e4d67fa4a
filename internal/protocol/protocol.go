// Package protocol implements the population protocol model of §3 of the
// paper: finite-state agents interacting in pairs, with configurations as
// multisets of states, outputs by stable consensus, and predicates decided
// under global fairness.
package protocol

import (
	"fmt"
	"math"

	"repro/internal/multiset"
)

// Transition is a pairwise transition (q, r ↦ q', r'). The fields hold state
// indices into Protocol.States as int32, so a transition takes 16 bytes;
// Validate refuses protocols with more than MaxStates states.
type Transition struct {
	Q, R   int32 // states of the two interacting agents before
	Q2, R2 int32 // states after
}

// IsSilent reports whether the transition leaves both agents unchanged, in
// either pairing order. Silent transitions never alter a configuration.
func (t Transition) IsSilent() bool {
	return (t.Q == t.Q2 && t.R == t.R2) || (t.Q == t.R2 && t.R == t.Q2)
}

// Protocol is a population protocol PP = (Q, δ, I, O).
//
// States are identified by index; States holds their display names. Input
// lists the input states I, and Accepting[i] reports whether state i ∈ O.
type Protocol struct {
	Name        string
	States      []string
	Transitions []Transition
	Input       []int
	Accepting   []bool

	stateIndex map[string]int
}

// MaxStates is the most states a protocol can have: transitions hold state
// indices as int32.
const MaxStates = math.MaxInt32

// CheckNumStates returns an error if a protocol named name with n states
// would overflow the int32 indices of its transitions. Validate, Builder,
// Product and the §7.3 conversion all refuse such protocols through it.
func CheckNumStates(name string, n int) error {
	if n > MaxStates {
		return fmt.Errorf("protocol %q: %d states exceed the %d that int32 transition indices address",
			name, n, MaxStates)
	}
	return nil
}

// Validate checks structural well-formedness: state indices in range, at
// least one state, at most MaxStates states, at least one input state, and
// no duplicate state names.
func (p *Protocol) Validate() error {
	if len(p.States) == 0 {
		return fmt.Errorf("protocol %q: no states", p.Name)
	}
	if err := CheckNumStates(p.Name, len(p.States)); err != nil {
		return err
	}
	if len(p.Accepting) != len(p.States) {
		return fmt.Errorf("protocol %q: Accepting has length %d, want %d",
			p.Name, len(p.Accepting), len(p.States))
	}
	if len(p.Input) == 0 {
		return fmt.Errorf("protocol %q: no input states", p.Name)
	}
	seen := make(map[string]bool, len(p.States))
	for i, s := range p.States {
		if s == "" {
			return fmt.Errorf("protocol %q: state %d has empty name", p.Name, i)
		}
		if seen[s] {
			return fmt.Errorf("protocol %q: duplicate state name %q", p.Name, s)
		}
		seen[s] = true
	}
	for _, i := range p.Input {
		if i < 0 || i >= len(p.States) {
			return fmt.Errorf("protocol %q: input state %d out of range", p.Name, i)
		}
	}
	n := uint32(len(p.States))
	for k, t := range p.Transitions {
		if uint32(t.Q) < n && uint32(t.R) < n && uint32(t.Q2) < n && uint32(t.R2) < n {
			continue
		}
		for _, i := range []int32{t.Q, t.R, t.Q2, t.R2} {
			if i < 0 || int(i) >= len(p.States) {
				return fmt.Errorf("protocol %q: transition %d references state %d out of range",
					p.Name, k, i)
			}
		}
	}
	return nil
}

// NumStates returns |Q|.
func (p *Protocol) NumStates() int { return len(p.States) }

// StateIndex returns the index of the named state, or -1 if absent.
func (p *Protocol) StateIndex(name string) int {
	if p.stateIndex == nil {
		p.stateIndex = make(map[string]int, len(p.States))
		for i, s := range p.States {
			p.stateIndex[s] = i
		}
	}
	if i, ok := p.stateIndex[name]; ok {
		return i
	}
	return -1
}

// NewConfig returns an empty configuration over this protocol's states.
func (p *Protocol) NewConfig() *multiset.Multiset {
	return multiset.New(len(p.States))
}

// InitialConfig returns the initial configuration placing the given counts
// on the input states, in the order of p.Input. It returns an error if the
// count vector does not match |I|, is all-zero (configurations must be
// non-empty, §3) or totals more than math.MaxInt64 agents.
func (p *Protocol) InitialConfig(counts ...int64) (*multiset.Multiset, error) {
	if len(counts) != len(p.Input) {
		return nil, fmt.Errorf("protocol %q: got %d input counts, want %d",
			p.Name, len(counts), len(p.Input))
	}
	c := p.NewConfig()
	for i, n := range counts {
		if n < 0 {
			return nil, fmt.Errorf("protocol %q: negative input count %d", p.Name, n)
		}
		if n > math.MaxInt64-c.Size() {
			return nil, fmt.Errorf("protocol %q: input counts total more than %d agents",
				p.Name, int64(math.MaxInt64))
		}
		c.Add(p.Input[i], n)
	}
	if c.Size() == 0 {
		return nil, fmt.Errorf("protocol %q: configurations must be non-empty", p.Name)
	}
	return c, nil
}

// IsInitial reports whether C places agents only on input states.
func (p *Protocol) IsInitial(c *multiset.Multiset) bool {
	isInput := make([]bool, len(p.States))
	for _, i := range p.Input {
		isInput[i] = true
	}
	for _, i := range c.Support() {
		if !isInput[i] {
			return false
		}
	}
	return c.Size() > 0
}

// Enabled reports whether transition t can fire in configuration c,
// i.e. C ≥ q + r (which requires C(q) ≥ 2 when q = r).
func (p *Protocol) Enabled(c *multiset.Multiset, t Transition) bool {
	if t.Q == t.R {
		return c.Count(int(t.Q)) >= 2
	}
	return c.Count(int(t.Q)) >= 1 && c.Count(int(t.R)) >= 1
}

// EnabledTransitions returns the indices of all transitions enabled in c.
// The result excludes silent transitions, which cannot change c.
func (p *Protocol) EnabledTransitions(c *multiset.Multiset) []int {
	var out []int
	for i, t := range p.Transitions {
		if t.IsSilent() {
			continue
		}
		if p.Enabled(c, t) {
			out = append(out, i)
		}
	}
	return out
}

// AnyEnabled reports whether some non-silent transition is enabled in c,
// len(EnabledTransitions(c)) > 0, stopping at the first it finds. It
// allocates nothing.
func (p *Protocol) AnyEnabled(c *multiset.Multiset) bool {
	for _, t := range p.Transitions {
		if !t.IsSilent() && p.Enabled(c, t) {
			return true
		}
	}
	return false
}

// Apply fires transition t on c in place. It panics if t is not enabled;
// callers must check Enabled first.
func (p *Protocol) Apply(c *multiset.Multiset, t Transition) {
	if !p.Enabled(c, t) {
		panic(fmt.Sprintf("protocol %q: transition %+v not enabled in %v", p.Name, t, c))
	}
	c.Add(int(t.Q), -1)
	c.Add(int(t.R), -1)
	c.Add(int(t.Q2), 1)
	c.Add(int(t.R2), 1)
}

// Successors returns the distinct configurations reachable from c by firing
// exactly one (non-silent, enabled) transition. The slice excludes c itself
// even when a transition happens to be a no-op on this configuration.
func (p *Protocol) Successors(c *multiset.Multiset) []*multiset.Multiset {
	seen := make(map[string]bool)
	var out []*multiset.Multiset
	for _, i := range p.EnabledTransitions(c) {
		next := c.Clone()
		p.Apply(next, p.Transitions[i])
		if next.Equal(c) {
			continue
		}
		k := next.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, next)
	}
	return out
}

// Output represents the consensus output of a configuration.
type Output int

// Output values. A configuration has output true if every agent is in an
// accepting state, false if no agent is, and is mixed (undefined) otherwise.
const (
	OutputMixed Output = iota
	OutputFalse
	OutputTrue
)

// String implements fmt.Stringer.
func (o Output) String() string {
	switch o {
	case OutputTrue:
		return "true"
	case OutputFalse:
		return "false"
	default:
		return "mixed"
	}
}

// OutputOf returns the consensus output of c per §3: true if C(q) = 0 for
// all q ∉ O, false if C(q) = 0 for all q ∈ O, mixed otherwise. The empty
// configuration is vacuously both; we report it as mixed since it cannot
// occur in a run. It scans the counts in place and allocates nothing.
func (p *Protocol) OutputOf(c *multiset.Multiset) Output {
	anyAccepting, anyRejecting := false, false
	for i, n := 0, c.Len(); i < n; i++ {
		if c.Count(i) <= 0 {
			continue
		}
		if p.Accepting[i] {
			anyAccepting = true
		} else {
			anyRejecting = true
		}
	}
	switch {
	case anyAccepting && !anyRejecting:
		return OutputTrue
	case anyRejecting && !anyAccepting:
		return OutputFalse
	default:
		return OutputMixed
	}
}

// Predicate maps an initial configuration (restricted to the input states,
// in the order of Protocol.Input) to the expected decision.
type Predicate func(inputCounts []int64) bool

// InputCounts projects a configuration onto the protocol's input states, in
// the order of p.Input, for evaluation by a Predicate.
func (p *Protocol) InputCounts(c *multiset.Multiset) []int64 {
	out := make([]int64, len(p.Input))
	for i, s := range p.Input {
		out[i] = c.Count(s)
	}
	return out
}
