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
	"math"
	"runtime"

	"repro/internal/protocol"
)

// ErrStateLimit is returned when exploration exceeds the configured bound.
var ErrStateLimit = errors.New("explore: state limit exceeded")

func errStateLimit(limit int) error {
	return fmt.Errorf("%w (limit %d)", ErrStateLimit, limit)
}

// System is a finite-state transition system with consensus outputs,
// presented through a key codec: the engine interns states by their key
// bytes, keeps no decoded state in RAM, rebuilds states from their keys to
// expand a frontier and to analyse the bottom SCCs, and so can spill the
// keys to disk under a memory budget. ProtocolSystem and
// popmachine.System implement it.
type System[S any] interface {
	// Key returns a unique identifier for the state. Witness keys in a
	// Result come from it.
	Key(s S) string
	// AppendKey appends the state's key bytes to dst. Two states get equal
	// AppendKey bytes if and only if they get equal Keys, but the bytes
	// need not be Key's.
	AppendKey(dst []byte, s S) []byte
	// DecodeKey inverts AppendKey exactly: decoding a state's key yields a
	// state equal to the original under AppendSuccessorKeys and Output.
	// prev, when non-zero, is a previously decoded state the implementation
	// may overwrite and return to avoid allocating per decode; callers
	// never use prev again after the call.
	DecodeKey(prev S, key []byte) (S, error)
	// AppendSuccessorKeys appends to dst the AppendKey bytes of each state
	// reachable from s in one step, and to ends the end offset in dst of
	// each key (the first key starts at len(dst) on entry). Self-loops may
	// be included or omitted; they do not affect bottom-SCC analysis. It
	// may modify s while it runs but must restore it before returning. The
	// engine calls it on each worker's own decoded state, never on a state
	// another goroutine can see.
	AppendSuccessorKeys(s S, dst []byte, ends []int) ([]byte, []int)
	// Output returns the consensus output of the state.
	Output(s S) protocol.Output
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds the number of distinct states explored. Zero means
	// the default of 2,000,000; values above math.MaxInt32 mean
	// math.MaxInt32, since state ids are int32.
	MaxStates int
	// Workers is the number of frontier-expansion goroutines used by the
	// engine (ExploreContext / ExploreParallel and everything routed
	// through it), capped at GOMAXPROCS. Zero means one worker per
	// available CPU. Results are bit-identical for every worker count, so
	// experiments stay reproducible regardless of the machine they ran on.
	Workers int
	// MemBudget caps the resident bytes of the engine's spillable storage:
	// the interned key log, which every BFS level is read from, keeps half
	// of it. Zero means unbounded: everything stays in RAM and no spill
	// files are created. With a budget set, sealed key-log segments spill
	// to files under SpillDir and levels are expanded in bounded blocks;
	// Results remain bit-identical to the all-RAM engine at any budget.
	// The interner's fixed-width tables (~16 bytes per state), the CSR
	// edge arrays (8 bytes per state and 4 per edge) and the analysis's
	// per-state arrays stay in RAM and are not counted against the budget.
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
	return min(o.MaxStates, math.MaxInt32)
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

// graph is the reachable graph in compressed sparse rows: the successor ids
// of state u are to[off[u]:off[u+1]]. The engine expands states in
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
// keeping only bottom components in component-id order, which keeps
// Outcomes and WitnessKeys bit-identical for every worker count and budget.
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

// analyseFromLog runs the post-BFS phases: Tarjan's SCC pass over the CSR
// graph, bottom-component detection, and per-bottom-SCC consensus outcomes
// (phase 4). States were never kept in RAM, so phase 4 streams them back
// from the key log — one sequential pass in dense-id order (record k of the
// log is state k), decoding only bottom-SCC members. Witness keys are the
// only strings materialised: sys.Key of one decoded member per bottom SCC.
func analyseFromLog[S any](sys System[S], log *keyLog, g graph) (*Result, error) {
	n := g.rows()
	comp, isBottom, numComp := bottomComponents(g)

	outcome := make([]protocol.Output, numComp)
	haveOutcome := make([]bool, numComp)
	witness := make([]string, numComp)
	var s S
	cur := log.cursorAt(1) // the first record, past the pad byte
	for u := 0; u < n; u++ {
		key, err := cur.next()
		if err != nil {
			return nil, err
		}
		c := comp[u]
		if !isBottom[c] {
			continue
		}
		s, err = sys.DecodeKey(s, key)
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
