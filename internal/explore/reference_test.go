package explore

import (
	"fmt"
	"sync"

	"repro/internal/protocol"
)

// Explore is the sequential reference explorer the differential tests hold
// the engine to: a FIFO BFS that interns states by Key in a Go map, keeps
// every decoded state in RAM, records the edges over dense integer ids in
// discovery order, and analyses the bottom SCCs of that graph. It shares
// nothing with the engine but the successor enumeration, Tarjan's pass and
// the Result layout, so the engine's interner, frontier, spill tiers,
// parallel expansion and commit order are each checked against it.
func Explore[S any](sys System[S], initial []S, opts Options) (*Result, error) {
	limit := opts.maxStates()

	// Ids are assigned in discovery order, so the FIFO queue is the id
	// sequence itself: states expand in ascending id order, each appending
	// the next CSR row.
	ids := make(map[string]int)
	var states []S
	g := newGraph()

	intern := func(s S) (int, error) {
		k := sys.Key(s)
		if id, ok := ids[k]; ok {
			return id, nil
		}
		if len(states) >= limit {
			return 0, errStateLimit(limit)
		}
		id := len(states)
		ids[k] = id
		states = append(states, s)
		return id, nil
	}

	for _, s := range initial {
		if _, err := intern(s); err != nil {
			return nil, err
		}
	}
	var keys []byte
	var ends []int
	for id := 0; id < len(states); id++ {
		keys, ends = sys.AppendSuccessorKeys(states[id], keys[:0], ends[:0])
		start := 0
		for _, end := range ends {
			var fresh S
			next, err := sys.DecodeKey(fresh, keys[start:end])
			if err != nil {
				return nil, err
			}
			start = end
			nid, err := intern(next)
			if err != nil {
				return nil, err
			}
			g.to = append(g.to, int32(nid))
		}
		g.endRow()
	}
	return analyse(sys, states, g), nil
}

// analyse is the reference's bottom-SCC analysis over states held in RAM:
// per bottom SCC, the consensus outcome of its members and the Key of its
// first member as the witness.
func analyse[S any](sys System[S], states []S, g graph) *Result {
	comp, isBottom, numComp := bottomComponents(g)
	outcome := make([]protocol.Output, numComp)
	haveOutcome := make([]bool, numComp)
	witness := make([]string, numComp)
	for u := range states {
		c := comp[u]
		if !isBottom[c] {
			continue
		}
		o := sys.Output(states[u])
		if !haveOutcome[c] {
			outcome[c] = o
			haveOutcome[c] = true
			witness[c] = sys.Key(states[u])
			continue
		}
		if outcome[c] != o {
			outcome[c] = protocol.OutputMixed
		}
	}
	return collectResult(len(states), numComp, isBottom, outcome, witness)
}

// stepSystem is a toy transition system that has states, a Key per state,
// a successor relation and outputs, but no key codec.
type stepSystem[S any] interface {
	Key(s S) string
	Successors(s S) []S
	Output(s S) protocol.Output
}

// keyedSystem adapts a toy system to System by keying states with Key: a
// state's key bytes are its Key, and DecodeKey returns the state that was
// encoded under those bytes. The table of encoded states is shared by the
// engine's expansion workers, so it is locked.
func keyedSystem[S any](sys stepSystem[S]) System[S] {
	return keyed[S]{stepSystem: sys, mu: new(sync.Mutex), states: make(map[string]S)}
}

type keyed[S any] struct {
	stepSystem[S]
	mu     *sync.Mutex
	states map[string]S
}

func (k keyed[S]) AppendKey(dst []byte, s S) []byte {
	key := k.Key(s)
	k.mu.Lock()
	k.states[key] = s
	k.mu.Unlock()
	return append(dst, key...)
}

func (k keyed[S]) DecodeKey(_ S, key []byte) (S, error) {
	k.mu.Lock()
	s, ok := k.states[string(key)]
	k.mu.Unlock()
	if !ok {
		return s, fmt.Errorf("keyed: no state encoded as %q", key)
	}
	return s, nil
}

func (k keyed[S]) AppendSuccessorKeys(s S, dst []byte, ends []int) ([]byte, []int) {
	for _, t := range k.Successors(s) {
		dst = k.AppendKey(dst, t)
		ends = append(ends, len(dst))
	}
	return dst, ends
}
