package experiments

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/sched"
)

// ge1Program is the x ≥ 1 population program: it waits until it detects an
// agent in x, then flips the output flag. E10, E11b's ⟨elect⟩ row and E16
// measure its converted protocol, and E14 its conversion's tightness.
func ge1Program() *popprog.Program {
	return &popprog.Program{
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
}

// ge1Converted compiles ge1Program into a population machine and converts
// the machine into a population protocol.
func ge1Converted() (*convert.Result, error) {
	machine, err := compile.Compile(ge1Program())
	if err != nil {
		return nil, err
	}
	return convert.Convert(machine)
}

// elect steps s on cfg until the ⟨elect⟩ phase of res's protocol completes
// (Lemma 15) or budget steps have elapsed, and returns the steps taken and
// whether the election completed.
func elect(res *convert.Result, s sched.Scheduler, cfg *multiset.Multiset, budget int64) (int64, bool) {
	var steps int64
	for !res.Elected(cfg) && steps < budget {
		s.Step(cfg)
		steps++
	}
	return steps, res.Elected(cfg)
}

// Election regenerates E10 as a table: interactions until the ⟨elect⟩ phase
// of a converted protocol completes (exactly one agent per pointer family,
// Lemma 15), as a function of the population size. The shape to observe:
// the count grows roughly quadratically in m under uniform random pairing
// (each collapse needs a specific pair to meet), and the election always
// completes — the lexicographic potential argument in executable form.
func Election(extraAgents []int64, runs int, seed int64) (*Table, error) {
	res, err := ge1Converted()
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
			steps, elected := elect(res, s, cfg, 100_000_000)
			if !elected {
				return nil, fmt.Errorf("election did not converge at m=%d", m)
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
