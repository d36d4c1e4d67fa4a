// Package explore implements exact verification of stable computation on
// finite transition systems.
//
// The paper defines stable computation (§3) over an arbitrary left-total
// relation →: a fair run stabilises to b if from some point on every
// configuration has output b, and fairness means the set of configurations
// visited infinitely often is closed under →. For a *finite* reachable
// graph this admits a crisp characterisation:
//
//	Every fair run from C stabilises to b
//	    ⟺  every bottom SCC reachable from C has all states with output b.
//
// (A fair run's infinitely-visited set is successor-closed, hence contains a
// bottom SCC B; since B is bottom, no state outside B is reachable from B,
// so the infinitely-visited set is exactly B; stabilisation to b therefore
// requires — and is implied by — B being uniformly b.)
//
// This package explores the reachable graph of any System, computes its
// bottom SCCs with Tarjan's algorithm, and reports the set of stabilisation
// outcomes. It is what turns the paper's lemmas into machine-checked facts
// on small instances: protocols are checked over multiset configuration
// graphs, population machines over register-vector × pointer-valuation
// graphs.
package explore

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// ErrStateLimit is returned when exploration exceeds the configured bound.
var ErrStateLimit = errors.New("explore: state limit exceeded")

func errStateLimit(limit int) error {
	return fmt.Errorf("%w (limit %d)", ErrStateLimit, limit)
}

// System is a finite-state transition system with consensus outputs.
// Keys must uniquely identify states.
type System[S any] interface {
	// Key returns a unique identifier for the state.
	Key(s S) string
	// Successors returns the states reachable in one step. Self-loops may
	// be included or omitted; they do not affect bottom-SCC analysis.
	Successors(s S) []S
	// Output returns the consensus output of the state.
	Output(s S) protocol.Output
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds the number of distinct states explored.
	// Zero means the default of 2,000,000.
	MaxStates int
	// Workers is the number of frontier-expansion goroutines used by the
	// parallel engine (ExploreContext / ExploreParallel and everything
	// routed through it), capped at GOMAXPROCS. Zero means one worker per
	// available CPU. Results are bit-identical for every worker count, so
	// experiments stay reproducible regardless of the machine they ran on.
	Workers int
	// MemBudget caps the resident bytes of the parallel engine's spillable
	// storage tier (interned key log + frontier buffers). Zero means
	// unbounded: everything stays in RAM and no spill files are created.
	// With a budget set, sealed key-log segments and overflowing frontier
	// levels spill to files under SpillDir; Results remain bit-identical to
	// the all-RAM engine at any budget. The interner's fixed-width tables
	// (~16 bytes per state), the CSR edge arrays (8 bytes per state and 4
	// per edge) and the analysis's per-state arrays stay in RAM and are not
	// counted against the budget. Dropping decoded states from RAM and
	// spilling the frontier require a system implementing KeyDecoderSystem
	// (protocols and population machines do); for other systems the budget
	// governs only the key-log tier.
	MemBudget int64
	// SpillDir is the directory under which the engine creates its per-run
	// spill directory (removed on every exit path). Empty means the system
	// temporary directory. Only consulted when spilling actually happens.
	SpillDir string
}

func (o Options) maxStates() int {
	if o.MaxStates <= 0 {
		return 2_000_000
	}
	return o.MaxStates
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Result reports the outcome of exploring from a set of initial states.
type Result struct {
	// NumStates is the number of distinct reachable states.
	NumStates int
	// NumBottomSCCs is the number of bottom SCCs of the reachable graph.
	NumBottomSCCs int
	// Outcomes lists, for each bottom SCC, its stabilisation value:
	// OutputTrue/OutputFalse if all its states agree, OutputMixed if the
	// SCC does not represent a stable consensus (a fair run trapped there
	// never stabilises).
	Outcomes []protocol.Output
	// WitnessKeys holds, per bottom SCC, the key of one member state,
	// for diagnostics.
	WitnessKeys []string
}

// StabilisesTo reports whether every fair run from the initial states
// stabilises to b: all bottom SCCs must have outcome b.
func (r *Result) StabilisesTo(b bool) bool {
	want := protocol.OutputFalse
	if b {
		want = protocol.OutputTrue
	}
	if len(r.Outcomes) == 0 {
		return false
	}
	for _, o := range r.Outcomes {
		if o != want {
			return false
		}
	}
	return true
}

// Consensus returns the unique stabilisation value if all bottom SCCs agree
// on OutputTrue or OutputFalse, and OutputMixed otherwise.
func (r *Result) Consensus() protocol.Output {
	if len(r.Outcomes) == 0 {
		return protocol.OutputMixed
	}
	first := r.Outcomes[0]
	if first == protocol.OutputMixed {
		return protocol.OutputMixed
	}
	for _, o := range r.Outcomes[1:] {
		if o != first {
			return protocol.OutputMixed
		}
	}
	return first
}

// Explore builds the reachable graph from the initial states and analyses
// its bottom SCCs. It is the sequential reference implementation; the
// level-synchronised engine (ExploreContext) returns bit-identical Results
// and is what the checkers and experiments run in production.
func Explore[S any](sys System[S], initial []S, opts Options) (*Result, error) {
	limit := opts.maxStates()

	met := obs.Explore()
	if met != nil {
		met.Explorations.Inc()
		t0 := time.Now()
		defer func() { met.Nanos.Add(time.Since(t0).Nanoseconds()) }()
	}

	// Phase 1: BFS to discover all reachable states and record the edges
	// over dense integer ids. Ids are assigned in discovery order, so the
	// FIFO queue is the id sequence itself: states expand in ascending id
	// order, each appending the next CSR row.
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
		if met != nil {
			met.States.Inc()
		}
		return id, nil
	}

	for _, s := range initial {
		if _, err := intern(s); err != nil {
			return nil, err
		}
	}
	for id := 0; id < len(states); id++ {
		for _, next := range sys.Successors(states[id]) {
			nid, err := intern(next)
			if err != nil {
				return nil, err
			}
			g.to = append(g.to, int32(nid))
		}
		g.endRow()
		if met != nil {
			met.Edges.Add(int64(len(g.row(id))))
		}
	}

	return analyse(sys, states, g), nil
}

// graph is the reachable graph in compressed sparse rows: the successor ids
// of state u are to[off[u]:off[u+1]]. Both explorers expand states in
// ascending id order, so each expansion closes the next row. off stays int
// because a converted protocol with hundreds of successors per state passes
// 2³¹ edges at a few million states; to is int32, as the engine's state ids
// are.
type graph struct {
	off []int
	to  []int32
}

func newGraph() graph { return graph{off: []int{0}} }

// rows returns the number of closed rows: the states expanded so far.
func (g *graph) rows() int { return len(g.off) - 1 }

// endRow closes the next state's row over the ids appended to g.to since
// the previous row.
func (g *graph) endRow() { g.off = append(g.off, len(g.to)) }

// row returns the successor ids of state u.
func (g *graph) row(u int) []int32 { return g.to[g.off[u]:g.off[u+1]] }

// analyse runs the shared post-BFS phases: Tarjan's SCC pass over the CSR
// graph, bottom-component detection, and per-bottom-SCC consensus outcomes.
// Both the sequential and the parallel explorer feed it the same canonical
// (BFS-ordered) graph, which is what makes their Results bit-identical.
func analyse[S any](sys System[S], states []S, g graph) *Result {
	n := len(states)
	comp, isBottom, numComp := bottomComponents(g)

	// Phase 4: compute each bottom SCC's consensus outcome. Witness keys are
	// the only strings materialised here: one per bottom SCC, not per state.
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

	return collectResult(n, numComp, isBottom, outcome, witness)
}

// bottomComponents runs the shared structural phases: Tarjan's SCC pass over
// the CSR graph (phase 2) and bottom-component detection (phase 3). A
// component is bottom iff it has no edge to another component.
func bottomComponents(g graph) (comp []int32, isBottom []bool, numComp int) {
	comp, numComp = tarjanSCC(g)
	isBottom = make([]bool, numComp)
	for i := range isBottom {
		isBottom[i] = true
	}
	for u, cu := range comp {
		for _, v := range g.row(u) {
			if comp[v] != cu {
				isBottom[cu] = false
			}
		}
	}
	return comp, isBottom, numComp
}

// collectResult folds the per-component outcome/witness arrays into a Result,
// keeping only bottom components in component-id order — the same order for
// every engine, which keeps Outcomes and WitnessKeys bit-identical.
func collectResult(n, numComp int, isBottom []bool, outcome []protocol.Output, witness []string) *Result {
	res := &Result{NumStates: n}
	for c := 0; c < numComp; c++ {
		if !isBottom[c] {
			continue
		}
		res.NumBottomSCCs++
		res.Outcomes = append(res.Outcomes, outcome[c])
		res.WitnessKeys = append(res.WitnessKeys, witness[c])
	}
	return res
}

// analyseFromLog is analyse for the out-of-core engine: states were never
// kept in RAM, so phase 4 streams them back from the key log — one
// sequential pass in dense-id order (record k of the log is state k),
// decoding only bottom-SCC members. Witness keys are recomputed via sys.Key
// on the decoded state, exactly as analyse computes them, so Results match
// the in-RAM engines byte for byte.
func analyseFromLog[S any](sys System[S], dec KeyDecoderSystem[S], log *keyLog, g graph) (*Result, error) {
	n := g.rows()
	comp, isBottom, numComp := bottomComponents(g)

	outcome := make([]protocol.Output, numComp)
	haveOutcome := make([]bool, numComp)
	witness := make([]string, numComp)
	var s S
	cur := log.cursor()
	for u := 0; u < n; u++ {
		key, err := cur.next()
		if err != nil {
			return nil, err
		}
		c := comp[u]
		if !isBottom[c] {
			continue
		}
		s, err = dec.DecodeKey(s, key)
		if err != nil {
			return nil, err
		}
		o := sys.Output(s)
		if !haveOutcome[c] {
			outcome[c] = o
			haveOutcome[c] = true
			witness[c] = sys.Key(s)
			continue
		}
		if outcome[c] != o {
			outcome[c] = protocol.OutputMixed
		}
	}
	return collectResult(n, numComp, isBottom, outcome, witness), nil
}

// tarjanSCC computes strongly connected components iteratively and returns
// a component id per node and the number of components. Components are
// numbered in reverse topological order of discovery (ids are arbitrary for
// callers). A visited node is on Tarjan's stack exactly while it has no
// component yet, so comp doubles as the on-stack flag.
func tarjanSCC(g graph) (comp []int32, numComp int) {
	const unvisited = -1
	n := g.rows()
	index := make([]int32, n)
	low := make([]int32, n)
	comp = make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var stack []int32
	var nextIndex int32

	type frame struct {
		node int32
		edge int // next position in g.to
	}
	var callStack []frame

	for root := range int32(n) {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{node: root, edge: g.off[root]})
		index[root] = nextIndex
		low[root] = nextIndex
		nextIndex++
		stack = append(stack, root)

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			u := f.node
			if f.edge < g.off[u+1] {
				v := g.to[f.edge]
				f.edge++
				if index[v] == unvisited {
					index[v] = nextIndex
					low[v] = nextIndex
					nextIndex++
					stack = append(stack, v)
					callStack = append(callStack, frame{node: v, edge: g.off[v]})
				} else if comp[v] == unvisited { // on the stack
					if index[v] < low[u] {
						low[u] = index[v]
					}
				}
				continue
			}
			// Post-order: pop and propagate lowlink.
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].node
				if low[u] < low[parent] {
					low[parent] = low[u]
				}
			}
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					comp[w] = int32(numComp)
					if w == u {
						break
					}
				}
				numComp++
			}
		}
	}
	return comp, numComp
}
