package experiments

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/popprog"
	"repro/internal/sched"
)

// Election regenerates E10 as a table: interactions until the ⟨elect⟩ phase
// of a converted protocol completes (exactly one agent per pointer family,
// Lemma 15), as a function of the population size. The shape to observe:
// the count grows roughly quadratically in m under uniform random pairing
// (each collapse needs a specific pair to meet), and the election always
// completes — the lexicographic potential argument in executable form.
func Election(extraAgents []int64, runs int, seed int64) (*Table, error) {
	prog := &popprog.Program{
		Name:      "ge1",
		Registers: []string{"x"},
		Procedures: []*popprog.Procedure{{
			Name: "Main",
			Body: []popprog.Stmt{
				popprog.SetOF{Value: false},
				popprog.While{Cond: popprog.Not{C: popprog.Detect{Reg: 0}}},
				popprog.SetOF{Value: true},
				popprog.While{Cond: popprog.True{}},
			},
		}},
	}
	machine, err := compile.Compile(prog)
	if err != nil {
		return nil, err
	}
	res, err := convert.Convert(machine)
	if err != nil {
		return nil, err
	}
	p := res.Protocol

	t := &Table{
		ID:    "E10 (Lemma 15)",
		Title: fmt.Sprintf("leader election cost (|F| = %d pointer agents)", res.NumPointers),
		Columns: []string{
			"m", "mean interactions to elect", "max",
		},
		Notes: []string{
			"uniform random-pair scheduler; the election always completed",
		},
	}
	for _, extra := range extraAgents {
		m := int64(res.NumPointers) + extra
		var total, maxSteps int64
		for r := 0; r < runs; r++ {
			cfg, err := p.InitialConfig(m)
			if err != nil {
				return nil, err
			}
			// The Fenwick-indexed scheduler's Step consumes the same random
			// draws as the per-step random-pair sampler and maps them to the
			// same outcomes, so this is trace-identical to the historical
			// measurement — just faster over the converted protocol's large
			// state space.
			s := sched.NewBatchRandomPair(p, sched.NewRand(seed+int64(r)*7919+extra))
			var steps int64
			for !res.Elected(cfg) {
				s.Step(cfg)
				steps++
				if steps > 100_000_000 {
					return nil, fmt.Errorf("election did not converge at m=%d", m)
				}
			}
			total += steps
			if steps > maxSteps {
				maxSteps = steps
			}
		}
		t.AddRow(m, fmt.Sprintf("%.0f", float64(total)/float64(runs)), maxSteps)
	}
	return t, nil
}
