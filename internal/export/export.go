// Package export renders the repository's objects in exchange formats:
// Graphviz DOT for protocols, machine control-flow graphs and reachability
// graphs, and CSV for simulation traces and sweeps. These are the artefacts
// a downstream user plots or inspects; the cmd/ppexport tool wraps them.
package export

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/protocol"
	"repro/internal/simulate"
)

// quote escapes a string for use as a DOT identifier.
func quote(s string) string {
	return `"` + strings.NewReplacer(`"`, `\"`, "\n", `\n`).Replace(s) + `"`
}

// ProtocolDOT writes the protocol's transition structure as a directed
// graph: one node per state (accepting states doubled-circled, input states
// boxed) and one edge per non-silent transition, labelled with the partner
// states. Transitions (q, r ↦ q', r') appear as an edge q → q' labelled
// "with r → r'".
func ProtocolDOT(w io.Writer, p *protocol.Protocol) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", quote(p.Name))
	sb.WriteString("  rankdir=LR;\n")
	isInput := make(map[int]bool, len(p.Input))
	for _, i := range p.Input {
		isInput[i] = true
	}
	for i, name := range p.States {
		attrs := []string{"label=" + quote(name)}
		if p.Accepting[i] {
			attrs = append(attrs, "peripheries=2")
		}
		if isInput[i] {
			attrs = append(attrs, "shape=box")
		}
		fmt.Fprintf(&sb, "  s%d [%s];\n", i, strings.Join(attrs, ", "))
	}
	for _, t := range p.Transitions {
		if t.IsSilent() {
			continue
		}
		label := fmt.Sprintf("with %s → %s", p.States[t.R], p.States[t.R2])
		fmt.Fprintf(&sb, "  s%d -> s%d [label=%s];\n", t.Q, t.Q2, quote(label))
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// MachineDOT writes the machine's control-flow graph: one node per
// instruction, fall-through and jump edges.
func MachineDOT(w io.Writer, m *popmachine.Machine) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("export: %w", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", quote(m.Name))
	sb.WriteString("  node [shape=box, fontname=monospace];\n")
	for i, in := range m.Instrs {
		idx := i + 1
		fmt.Fprintf(&sb, "  i%d [label=%s];\n", idx, quote(fmt.Sprintf("%d: %s", idx, in.String(m))))
		switch it := in.(type) {
		case popmachine.AssignInstr:
			if it.X == m.IP {
				targets := make(map[int]bool)
				for _, v := range it.F {
					targets[v] = true
				}
				sorted := make([]int, 0, len(targets))
				for v := range targets {
					sorted = append(sorted, v)
				}
				sort.Ints(sorted)
				for _, v := range sorted {
					fmt.Fprintf(&sb, "  i%d -> i%d;\n", idx, v)
				}
				continue
			}
		}
		if idx < len(m.Instrs) {
			fmt.Fprintf(&sb, "  i%d -> i%d;\n", idx, idx+1)
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// ReachabilityDOT writes the configuration graph reachable from the given
// initial configurations of a protocol, up to maxStates configurations.
// Nodes are labelled with the configuration contents and coloured by
// consensus output.
func ReachabilityDOT(w io.Writer, p *protocol.Protocol, initial []*multiset.Multiset, maxStates int) error {
	if maxStates <= 0 {
		maxStates = 1000
	}
	stepper := protocol.NewStepper(p)
	ids := make(map[string]int)
	var configs []*multiset.Multiset
	var queue []int
	intern := func(c *multiset.Multiset) (int, bool) {
		k := c.Key()
		if id, ok := ids[k]; ok {
			return id, false
		}
		if len(configs) >= maxStates {
			return -1, false
		}
		id := len(configs)
		ids[k] = id
		configs = append(configs, c.Clone())
		return id, true
	}
	for _, c := range initial {
		if id, fresh := intern(c); fresh {
			queue = append(queue, id)
		}
	}
	type edge struct{ from, to int }
	var edges []edge
	truncated := false
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, next := range stepper.Successors(configs[id]) {
			nid, fresh := intern(next)
			if nid < 0 {
				truncated = true
				continue
			}
			edges = append(edges, edge{id, nid})
			if fresh {
				queue = append(queue, nid)
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %s {\n", quote(p.Name+"-reach"))
	for id, c := range configs {
		colour := "gray80"
		switch p.OutputOf(c) {
		case protocol.OutputTrue:
			colour = "palegreen"
		case protocol.OutputFalse:
			colour = "lightpink"
		}
		fmt.Fprintf(&sb, "  c%d [label=%s, style=filled, fillcolor=%s];\n",
			id, quote(c.Format(p.States)), colour)
	}
	for _, e := range edges {
		fmt.Fprintf(&sb, "  c%d -> c%d;\n", e.from, e.to)
	}
	if truncated {
		sb.WriteString("  trunc [label=\"(truncated)\", shape=plaintext];\n")
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// TraceCSV writes a simulation trace as CSV (step, accepting, fraction).
func TraceCSV(w io.Writer, t *simulate.Trace) error {
	if _, err := io.WriteString(w, "step,accepting,fraction\n"); err != nil {
		return err
	}
	for i := range t.Steps {
		frac := 0.0
		if t.Population > 0 {
			frac = float64(t.Accepting[i]) / float64(t.Population)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%.6f\n", t.Steps[i], t.Accepting[i], frac); err != nil {
			return err
		}
	}
	return nil
}
