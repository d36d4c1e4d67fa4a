package explore

import (
	"fmt"
	"math/rand"
	"testing"
)

// reachClosure computes the full reachability matrix by BFS from every node:
// reach[u][v] iff there is a (possibly empty) path u →* v. Deliberately
// naive — it is the oracle, not the implementation.
func reachClosure(n int, edges [][]int) [][]bool {
	reach := make([][]bool, n)
	for u := 0; u < n; u++ {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		queue := []int{u}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, v := range edges[x] {
				if !reach[u][v] {
					reach[u][v] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return reach
}

// csrOf packs adjacency lists into the explorers' CSR graph.
func csrOf(edges [][]int) graph {
	g := newGraph()
	for _, outs := range edges {
		for _, v := range outs {
			g.to = append(g.to, int32(v))
		}
		g.endRow()
	}
	return g
}

// checkTarjanAgainstOracle verifies, for one digraph, that tarjanSCC's
// partition equals the mutual-reachability relation and that
// bottomComponents' flags equal the oracle's "everything reachable can
// reach back".
func checkTarjanAgainstOracle(t *testing.T, label string, n int, edges [][]int) {
	t.Helper()
	comp, isBottom, numComp := bottomComponents(csrOf(edges))
	reach := reachClosure(n, edges)
	for u := 0; u < n; u++ {
		if comp[u] < 0 || int(comp[u]) >= numComp {
			t.Fatalf("%s: node %d has component %d of %d", label, u, comp[u], numComp)
		}
		for v := 0; v < n; v++ {
			mutual := reach[u][v] && reach[v][u]
			if (comp[u] == comp[v]) != mutual {
				t.Fatalf("%s: comp[%d]=%d comp[%d]=%d but mutual reachability is %v",
					label, u, comp[u], v, comp[v], mutual)
			}
		}
	}
	used := make([]bool, numComp)
	for _, c := range comp {
		used[c] = true
	}
	for c, ok := range used {
		if !ok {
			t.Fatalf("%s: component %d of %d has no node", label, c, numComp)
		}
	}
	for u := 0; u < n; u++ {
		oracleBottom := true
		for v := 0; v < n; v++ {
			if reach[u][v] && !reach[v][u] {
				oracleBottom = false
				break
			}
		}
		if isBottom[comp[u]] != oracleBottom {
			t.Fatalf("%s: node %d bottom flag %v, oracle says %v",
				label, u, isBottom[comp[u]], oracleBottom)
		}
	}
}

// TestTarjanSCCAgainstOracle property-tests tarjanSCC on randomized
// digraphs across densities, plus the adversarial shapes called out in the
// component's history: self-loops, deep chains (recursion busters), and
// graphs with many bottom SCCs.
func TestTarjanSCCAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20230806))

	// Random digraphs across edge densities, with self-loops allowed.
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		p := []float64{0.02, 0.05, 0.1, 0.3}[trial%4]
		edges := make([][]int, n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if rng.Float64() < p {
					edges[u] = append(edges[u], v) // u == v ⇒ self-loop
				}
			}
		}
		checkTarjanAgainstOracle(t, fmt.Sprintf("random trial %d (n=%d p=%.2f)", trial, n, p), n, edges)
	}

	// Deep chain with sparse back edges: long lowlink propagation paths.
	{
		const n = 400
		edges := make([][]int, n)
		for u := 0; u+1 < n; u++ {
			edges[u] = append(edges[u], u+1)
		}
		for i := 0; i < 10; i++ {
			hi := 1 + rng.Intn(n-1)
			edges[hi] = append(edges[hi], rng.Intn(hi))
		}
		checkTarjanAgainstOracle(t, "deep chain with back edges", n, edges)
	}

	// Multi-bottom star: a root feeding many disjoint cycles, every cycle a
	// bottom SCC, the root a singleton non-bottom component.
	{
		const cycles, cycleLen = 7, 3
		n := 1 + cycles*cycleLen
		edges := make([][]int, n)
		for c := 0; c < cycles; c++ {
			base := 1 + c*cycleLen
			edges[0] = append(edges[0], base)
			for i := 0; i < cycleLen; i++ {
				edges[base+i] = append(edges[base+i], base+(i+1)%cycleLen)
			}
		}
		checkTarjanAgainstOracle(t, "multi-bottom star", n, edges)
	}

	// All self-loops, no other edges: n singleton bottom SCCs.
	{
		const n = 12
		edges := make([][]int, n)
		for u := 0; u < n; u++ {
			edges[u] = []int{u}
		}
		checkTarjanAgainstOracle(t, "self-loops only", n, edges)
	}

	// Empty graph and single node.
	checkTarjanAgainstOracle(t, "empty", 0, nil)
	checkTarjanAgainstOracle(t, "single node", 1, [][]int{nil})
}
