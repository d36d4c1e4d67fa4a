package sched

// Interaction topologies for the graph-restricted schedulers. The paper's
// execution model is the complete interaction graph — any two agents may
// meet — and every result in §3–§8 is stated for that model. The topologies
// here restrict which pairs may ever interact, which is the robustness axis
// of the reproduction: protocol state machines are unchanged, only the
// scheduler's choice set shrinks. On a clique the graph scheduler's law is
// exactly the uniform random-pair law (certified by the conformance suite);
// on sparse graphs convergence degrades or fails in protocol-dependent ways
// that the E16 experiment measures.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/protocol"
)

// Topology kind names, used by TopologySpec, the CLI -topology flag and the
// per-kind telemetry slots.
const (
	TopoClique   = "clique"
	TopoRing     = "ring"
	TopoGrid     = "grid"
	TopoPowerLaw = "powerlaw"
	TopoEdges    = "edges"
)

// topoKindIndex maps a kind name to its telemetry Vec slot.
func topoKindIndex(kind string) int {
	switch kind {
	case TopoClique:
		return 0
	case TopoRing:
		return 1
	case TopoGrid:
		return 2
	case TopoPowerLaw:
		return 3
	default:
		return 4 // explicit edge lists and anything exotic
	}
}

// maxCliqueAgents bounds explicit clique materialisation: a clique holds
// n(n−1)/2 edges and the graph schedulers keep per-edge state, so large-n
// complete-graph runs belong to the count-based kernels, not here.
const maxCliqueAgents = 2048

// Topology is an undirected interaction graph over agents 0..N−1. Edges are
// stored with the smaller endpoint first and contain no self-loops or
// duplicates.
type Topology struct {
	Kind  string
	N     int
	Edges [][2]int
}

// Connected reports whether every agent is reachable from agent 0.
func (t *Topology) Connected() bool {
	if t.N == 0 {
		return false
	}
	adj := make([][]int, t.N)
	for _, e := range t.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := make([]bool, t.N)
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				count++
				queue = append(queue, w)
			}
		}
	}
	return count == t.N
}

// CliqueTopology is the complete graph: the paper's interaction model.
func CliqueTopology(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("sched: clique topology needs ≥ 2 agents, got %d", n)
	}
	if n > maxCliqueAgents {
		return nil, fmt.Errorf("sched: clique topology capped at %d agents (got %d); use the batch/collision kernels for large complete-graph runs", maxCliqueAgents, n)
	}
	t := &Topology{Kind: TopoClique, N: n}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.Edges = append(t.Edges, [2]int{i, j})
		}
	}
	return t, nil
}

// RingTopology is the cycle graph (a single edge for n = 2).
func RingTopology(n int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("sched: ring topology needs ≥ 2 agents, got %d", n)
	}
	t := &Topology{Kind: TopoRing, N: n}
	if n == 2 {
		t.Edges = [][2]int{{0, 1}}
		return t, nil
	}
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		t.Edges = append(t.Edges, [2]int{a, b})
	}
	return t, nil
}

// GridTopology is the rows×cols 4-neighbour lattice.
func GridTopology(rows, cols int) (*Topology, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("sched: grid topology needs ≥ 2 agents, got %d×%d", rows, cols)
	}
	t := &Topology{Kind: TopoGrid, N: rows * cols}
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.Edges = append(t.Edges, [2]int{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				t.Edges = append(t.Edges, [2]int{id(r, c), id(r+1, c)})
			}
		}
	}
	return t, nil
}

// PowerLawTopology grows a Barabási–Albert preferential-attachment graph:
// starting from a path over attach+1 seed agents, each new agent wires to
// attach distinct existing agents chosen proportionally to degree. The wiring
// is a deterministic function of (n, attach, seed).
func PowerLawTopology(n, attach int, seed int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("sched: power-law topology needs ≥ 2 agents, got %d", n)
	}
	if attach < 1 {
		attach = 1
	}
	if attach > n-1 {
		attach = n - 1
	}
	rng := NewRand(seed)
	t := &Topology{Kind: TopoPowerLaw, N: n}
	// ends lists every edge endpoint twice; drawing a uniform element of it
	// is drawing an agent proportionally to its degree.
	var ends []int
	m0 := attach + 1
	if m0 > n {
		m0 = n
	}
	for i := 1; i < m0; i++ {
		t.Edges = append(t.Edges, [2]int{i - 1, i})
		ends = append(ends, i-1, i)
	}
	for v := m0; v < n; v++ {
		var targets []int
		for len(targets) < attach {
			w := ends[rng.Intn(len(ends))]
			if w == v || slices.Contains(targets, w) {
				continue
			}
			targets = append(targets, w)
		}
		sort.Ints(targets)
		for _, w := range targets {
			t.Edges = append(t.Edges, [2]int{w, v})
			ends = append(ends, w, v)
		}
	}
	return t, nil
}

// EdgeListTopology wraps an explicit undirected edge list. Self-loops,
// duplicate edges (in either orientation) and out-of-range endpoints are
// rejected.
func EdgeListTopology(n int, edges [][2]int) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("sched: edge-list topology needs ≥ 2 agents, got %d", n)
	}
	if len(edges) == 0 {
		return nil, fmt.Errorf("sched: edge-list topology needs at least one edge")
	}
	t := &Topology{Kind: TopoEdges, N: n}
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		switch {
		case a < 0 || b >= n:
			return nil, fmt.Errorf("sched: edge (%d,%d) out of range for %d agents", e[0], e[1], n)
		case a == b:
			return nil, fmt.Errorf("sched: self-loop edge (%d,%d)", e[0], e[1])
		case seen[[2]int{a, b}]:
			return nil, fmt.Errorf("sched: duplicate edge (%d,%d)", e[0], e[1])
		}
		seen[[2]int{a, b}] = true
		t.Edges = append(t.Edges, [2]int{a, b})
	}
	return t, nil
}

// TopologySpec is a population-size-independent description of a topology
// plus the edge-selection policy and the fault rates to drive it with. It is
// what simulate.Options and the CLIs carry: the concrete graph is built per
// run, once the population size is known.
//
// The fault rates are the fault-injection layer (the §8 robustness axis,
// taken further than the paper: the adversary now perturbs the
// *population*, not just the initial registers), applied at the start of
// every scheduling decision:
//
//   - Crash: with this probability one uniformly random alive agent crashes.
//     A crashed agent keeps its state and stays in the configuration — it
//     still counts for the consensus output and for quiescence — but all of
//     its edges go dark, so it interacts with nobody. Crashes never reduce
//     the alive population below 2 (a scheduler needs a pair).
//   - Revive: with this probability one uniformly random crashed agent
//     revives in the state it crashed with; its edges to alive neighbours
//     light up again.
//   - Join: with this probability a fresh agent in state JoinState joins,
//     wired to 2 distinct alive agents chosen uniformly at random. Joins
//     grow the configuration (and so the population size m).
//
// Crashed-but-revivable agents keep the run non-quiescent: the scheduler's
// Quiescent method treats their edges as live, so the runner never declares
// definite stabilisation while a crashed agent could still change the
// outcome.
type TopologySpec struct {
	// Kind is one of the Topo* constants.
	Kind string
	// Rows/Cols fix the grid shape; both zero means the most-square
	// factorisation of the population size (degenerating to a path when the
	// size is prime).
	Rows, Cols int
	// Attach is the power-law attachment count (default 2).
	Attach int
	// WireSeed seeds the power-law wiring (independent of the run seed, so
	// every run of a sweep sees the same graph).
	WireSeed int64
	// Edges is the explicit edge list for TopoEdges.
	Edges [][2]int
	// Policy selects the edge-selection policy (Policy* constants; empty
	// means PolicyRandom). PolicyStarvation's delay bound is 2·|E|+64 and
	// PolicyAdversary mixes uniformly with probability 1/8.
	Policy string
	// Crash / Revive / Join are per-decision fault probabilities in [0, 1];
	// all zero means no faults.
	Crash, Revive, Join float64
	// JoinState is the protocol state index joining agents start in.
	JoinState int
}

// Validate rejects an unknown edge-selection policy and out-of-range fault
// rates. Build rejects an unknown kind, and scheduler construction a
// JoinState beyond the protocol's states.
func (ts TopologySpec) Validate() error {
	switch ts.Policy {
	case "", PolicyRandom, PolicyRoundRobin, PolicyStarvation, PolicyAdversary:
	default:
		return fmt.Errorf("sched: unknown edge-selection policy %q (want %q, %q, %q or %q)",
			ts.Policy, PolicyRandom, PolicyRoundRobin, PolicyStarvation, PolicyAdversary)
	}
	for _, r := range []struct {
		name string
		v    float64
	}{{"Crash", ts.Crash}, {"Revive", ts.Revive}, {"Join", ts.Join}} {
		if !(r.v >= 0 && r.v <= 1) { // NaN fails too
			return fmt.Errorf("sched: fault rate %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	if ts.JoinState < 0 {
		return fmt.Errorf("sched: negative JoinState %d", ts.JoinState)
	}
	return nil
}

// Build materialises the spec's graph over a population of n agents.
func (ts TopologySpec) Build(n int64) (*Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("sched: topology needs ≥ 2 agents, got %d", n)
	}
	if n > 1<<24 {
		return nil, fmt.Errorf("sched: topology schedulers keep per-agent state; %d agents is out of range", n)
	}
	m := int(n)
	switch ts.Kind {
	case TopoClique:
		return CliqueTopology(m)
	case TopoRing:
		return RingTopology(m)
	case TopoGrid:
		rows, cols := ts.Rows, ts.Cols
		if rows == 0 && cols == 0 {
			for rows = 1; (rows+1)*(rows+1) <= m; rows++ {
			}
			for ; rows > 1 && m%rows != 0; rows-- {
			}
			cols = m / rows
		}
		if rows*cols != m {
			return nil, fmt.Errorf("sched: grid %d×%d does not hold %d agents", rows, cols, m)
		}
		return GridTopology(rows, cols)
	case TopoPowerLaw:
		attach := ts.Attach
		if attach == 0 {
			attach = 2
		}
		return PowerLawTopology(m, attach, ts.WireSeed)
	case TopoEdges:
		return EdgeListTopology(m, ts.Edges)
	default:
		return nil, fmt.Errorf("sched: unknown topology kind %q", ts.Kind)
	}
}

// NewScheduler builds the spec's graph over n agents and the GraphScheduler
// that drives it under the spec's policy and fault rates. It is the single
// constructor the CLIs and simulate.Options route through.
func (ts TopologySpec) NewScheduler(p *protocol.Protocol, rng *rand.Rand, n int64) (*GraphScheduler, error) {
	topo, err := ts.Build(n)
	if err != nil {
		return nil, err
	}
	return newGraphScheduler(p, topo, rng, ts)
}

// ParseTopologySpec parses the CLI -topology syntax:
//
//	clique | ring | grid | grid:RxC | powerlaw | powerlaw:ATTACH
func ParseTopologySpec(s string) (TopologySpec, error) {
	kind, param := s, ""
	if i := strings.IndexByte(s, ':'); i >= 0 {
		kind, param = s[:i], s[i+1:]
	}
	spec := TopologySpec{Kind: kind}
	switch kind {
	case TopoClique, TopoRing:
		if param != "" {
			return spec, fmt.Errorf("topology %q takes no parameter", kind)
		}
	case TopoGrid:
		if param != "" {
			parts := strings.SplitN(param, "x", 2)
			if len(parts) != 2 {
				return spec, fmt.Errorf("grid parameter %q: want ROWSxCOLS", param)
			}
			rows, err1 := strconv.Atoi(parts[0])
			cols, err2 := strconv.Atoi(parts[1])
			if err1 != nil || err2 != nil || rows < 1 || cols < 1 {
				return spec, fmt.Errorf("grid parameter %q: want ROWSxCOLS", param)
			}
			spec.Rows, spec.Cols = rows, cols
		}
	case TopoPowerLaw:
		if param != "" {
			attach, err := strconv.Atoi(param)
			if err != nil || attach < 1 {
				return spec, fmt.Errorf("powerlaw parameter %q: want a positive attachment count", param)
			}
			spec.Attach = attach
		}
	default:
		return spec, fmt.Errorf("unknown topology %q (want clique, ring, grid[:RxC] or powerlaw[:k])", s)
	}
	return spec, nil
}
