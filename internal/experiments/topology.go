package experiments

import (
	"errors"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

// TopologyConvergence regenerates E16: convergence vs interaction topology.
// Every result in the paper is stated for the complete interaction graph —
// any two agents may meet (§1). The graph-restricted schedulers let us
// measure how load-bearing that assumption is, protocol family by family:
//
//   - epidemic (one-way propagation): converges on every connected topology
//     — propagation only needs a spanning connected graph.
//   - majority (opinion cancellation): converges on the clique, but on
//     sparse topologies opposing opinion holders separate behind follower
//     regions and never meet again — runs stall un-stabilised, burning the
//     whole budget with the output pinned mixed.
//   - the threshold x ≥ 1 (the hand-written x ≥ 1 program through the §7.2
//     compiler and the §7.3 converter): its ⟨elect⟩ phase needs same-family
//     pointer agents to meet pairwise, which sparse adjacency can postpone
//     indefinitely.
//
// Stalled cells are the measurement, not a failure: they quantify exactly
// where the uniform-clique assumption does real work in the paper's results.
func TopologyConvergence(m int64, runs int, seed int64) (*Table, error) {
	t := &Table{
		ID:    "E16 (topology)",
		Title: "convergence vs interaction topology (graph-restricted schedulers)",
		Columns: []string{
			"protocol", "topology", "converged", "mean interactions", "wrong outputs",
		},
		Notes: []string{
			fmt.Sprintf("m = %d (election: |F| pointer agents + 9); uniform random alive-edge scheduler; stalled runs hit the step budget with the output still mixed", m),
			"threshold x ≥ 1: the hand-written x ≥ 1 program compiled (§7.2) and converted (§7.3); converged = ⟨elect⟩ phase complete (Lemma 15)",
		},
	}
	topos := []struct {
		name string
		spec sched.TopologySpec
	}{
		{"clique", sched.TopologySpec{Kind: sched.TopoClique}},
		{"ring", sched.TopologySpec{Kind: sched.TopoRing}},
		{"grid", sched.TopologySpec{Kind: sched.TopoGrid}},
		{"powerlaw", sched.TopologySpec{Kind: sched.TopoPowerLaw, WireSeed: 7}},
	}

	// Shared per-cell measurement: run the protocol per topology, counting
	// stalled (budget-exhausted) runs instead of failing on them.
	cell := func(p *protocol.Protocol, counts []int64, want protocol.Output,
		spec sched.TopologySpec, budget, cellSeed int64) (string, string, string, error) {
		var converged, wrong int
		var totalSteps int64
		opts := simulate.Options{
			MaxSteps: budget, StableWindow: 200, QuiescencePeriod: 50,
			Topology: &spec,
		}
		for r := 0; r < runs; r++ {
			res, err := simulate.MeasureConvergence(p, counts, want == protocol.OutputTrue,
				1, cellSeed+int64(r), opts)
			if err != nil {
				if errors.Is(err, simulate.ErrBudgetExhausted) {
					continue // a stalled run is a data point
				}
				return "", "", "", err
			}
			converged++
			wrong += res.WrongOutputs
			totalSteps += int64(res.MeanSteps)
		}
		mean := "—"
		if converged > 0 {
			mean = fmt.Sprintf("%.0f", float64(totalSteps)/float64(converged))
		}
		return fmt.Sprintf("%d/%d", converged, runs), mean, fmt.Sprintf("%d", wrong), nil
	}

	epi := protocol.NewBuilder("epidemic")
	epi.Input("I", "S")
	epi.Transition("I", "S", "I", "I")
	epi.Transition("S", "I", "I", "I")
	epi.Accepting("I")
	epiP, err := epi.Build()
	if err != nil {
		return nil, err
	}
	for _, tc := range topos {
		conv, mean, wrong, err := cell(epiP, []int64{1, m - 1}, protocol.OutputTrue,
			tc.spec, 2_000_000, seed)
		if err != nil {
			return nil, fmt.Errorf("epidemic/%s: %w", tc.name, err)
		}
		t.AddRow("epidemic", tc.name, conv, mean, wrong)
	}

	majP, err := baseline.Majority()
	if err != nil {
		return nil, err
	}
	x := m/2 + 1
	for _, tc := range topos {
		conv, mean, wrong, err := cell(majP, []int64{x, m - x}, protocol.OutputTrue,
			tc.spec, 400_000, seed+101)
		if err != nil {
			return nil, fmt.Errorf("majority/%s: %w", tc.name, err)
		}
		t.AddRow("majority", tc.name, conv, mean, wrong)
	}

	// The threshold x ≥ 1: the hand-written program compiled (§7.2) and
	// converted (§7.3), the same pipeline E10 measures on the clique. The
	// cell measures the ⟨elect⟩ phase (Lemma 15) per topology.
	res, err := ge1Converted()
	if err != nil {
		return nil, err
	}
	p := res.Protocol
	mElect := int64(res.NumPointers) + 9
	for _, tc := range topos {
		var converged int
		var totalSteps int64
		for r := 0; r < runs; r++ {
			cfg, err := p.InitialConfig(mElect)
			if err != nil {
				return nil, err
			}
			s, err := tc.spec.NewScheduler(p, sched.NewRand(seed+211+int64(r)), mElect)
			if err != nil {
				return nil, fmt.Errorf("threshold/%s: %w", tc.name, err)
			}
			if steps, elected := elect(res, s, cfg, 2_000_000); elected {
				converged++
				totalSteps += steps
			}
		}
		mean := "—"
		if converged > 0 {
			mean = fmt.Sprintf("%.0f", float64(totalSteps)/float64(converged))
		}
		t.AddRow("threshold x ≥ 1 (§7.2–7.3)", tc.name, fmt.Sprintf("%d/%d", converged, runs), mean, "—")
	}
	return t, nil
}
