package protocol

import "fmt"

// Builder constructs protocols incrementally by state name. It is used by
// the baselines and the experiment protocols, whose states are generated
// from structured names.
type Builder struct {
	name        string
	states      []string
	index       map[string]int
	transitions []Transition
	input       []int
	accepting   map[int]bool
	err         error
}

// NewBuilder returns a builder for a protocol with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:      name,
		index:     make(map[string]int),
		accepting: make(map[int]bool),
	}
}

// State returns the index of the named state, creating it if necessary.
func (b *Builder) State(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.states)
	if err := CheckNumStates(b.name, i+1); err != nil && b.err == nil {
		b.err = fmt.Errorf("build: %w", err)
	}
	b.states = append(b.states, name)
	b.index[name] = i
	return i
}

// HasState reports whether a state with this name has been created.
func (b *Builder) HasState(name string) bool {
	_, ok := b.index[name]
	return ok
}

// NumStates returns the number of states created so far.
func (b *Builder) NumStates() int { return len(b.states) }

// Transition adds the transition (q, r ↦ q2, r2), creating any states that
// do not exist yet.
func (b *Builder) Transition(q, r, q2, r2 string) {
	b.transitions = append(b.transitions, Transition{
		Q: int32(b.State(q)), R: int32(b.State(r)), Q2: int32(b.State(q2)), R2: int32(b.State(r2)),
	})
}

// Input declares the given states (created if needed) as input states, in
// order. Repeated calls append.
func (b *Builder) Input(names ...string) {
	for _, n := range names {
		b.input = append(b.input, b.State(n))
	}
}

// Accepting marks the named states (created if needed) as accepting.
func (b *Builder) Accepting(names ...string) {
	for _, n := range names {
		b.accepting[b.State(n)] = true
	}
}

// AcceptingIf marks the named state as accepting iff cond holds. This keeps
// call sites declarative when acceptance depends on a computed bit (as in
// the output-broadcast construction).
func (b *Builder) AcceptingIf(name string, cond bool) {
	if cond {
		b.accepting[b.State(name)] = true
	} else {
		b.State(name)
	}
}

// Build finalises the protocol and validates it.
func (b *Builder) Build() (*Protocol, error) {
	if b.err != nil {
		return nil, b.err
	}
	p := &Protocol{
		Name:        b.name,
		States:      append([]string(nil), b.states...),
		Transitions: append([]Transition(nil), b.transitions...),
		Input:       append([]int(nil), b.input...),
		Accepting:   make([]bool, len(b.states)),
	}
	for i := range p.Accepting {
		p.Accepting[i] = b.accepting[i]
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	return p, nil
}
