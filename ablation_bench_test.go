package repro_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
//
//   - restart hinting (the "standard technique" of §2): how much does the
//     structured restart distribution buy over pure uniform restarts?
//   - detect truth bias: the random walk inside Large is symmetric at 0.5
//     and drifts upward as the oracle gets more truthful — decision steps
//     should fall as TruthProb rises;
//   - scheduler choice on converted protocols: uniform random pairing pays
//     Θ(m²) interactions per machine step against the transition-fair
//     scheduler's O(1) steps.

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// BenchmarkAblationRestartHint decides m = k(1) = 2 with varying hint
// probability. With 5 registers and 2 agents the uniform oracle still finds
// good configurations, so the ablation is measurable without hints.
func BenchmarkAblationRestartHint(b *testing.B) {
	c, err := core.New(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, hintProb := range []float64{0, 0.1, 0.5} {
		b.Run(fmt.Sprintf("hint=%.1f", hintProb), func(b *testing.B) {
			var restarts, steps int64
			for i := 0; i < b.N; i++ {
				res, err := popprog.DecideTotal(c.Program, 2, popprog.DecideOptions{
					Seed: int64(i), Budget: 2_000_000, TruthProb: 0.8, Attempts: 8,
					RestartHint: c.RestartHint(), HintProb: hintProb,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Output {
					b.Fatal("m=2 must be accepted")
				}
				restarts += res.Restarts
				steps += res.Steps
			}
			b.ReportMetric(float64(restarts)/float64(b.N), "restarts/decision")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/decision")
		})
	}
}

// BenchmarkAblationTruthProb decides m = k(2) = 10 with varying detect
// truth bias.
func BenchmarkAblationTruthProb(b *testing.B) {
	c, err := core.New(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, truth := range []float64{0.5, 0.7, 0.9} {
		b.Run(fmt.Sprintf("truth=%.1f", truth), func(b *testing.B) {
			var restarts int64
			for i := 0; i < b.N; i++ {
				res, err := popprog.DecideTotal(c.Program, 10, popprog.DecideOptions{
					Seed: int64(i), Budget: 8_000_000, TruthProb: truth, Attempts: 8,
					RestartHint: c.RestartHint(), HintProb: 0.3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Output {
					b.Fatal("m=10 must be accepted")
				}
				restarts += res.Restarts
			}
			b.ReportMetric(float64(restarts)/float64(b.N), "restarts/decision")
		})
	}
}

// BenchmarkReduction measures the support-closure reduction (E14) on the
// converted Figure 1 protocol.
func BenchmarkReduction(b *testing.B) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		b.Fatal(err)
	}
	res, err := convert.Convert(machine)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduced, removed, err := protocol.Reduce(res.Protocol)
		if err != nil {
			b.Fatal(err)
		}
		if removed == 0 {
			b.Fatal("no reduction")
		}
		b.ReportMetric(float64(reduced.NumStates()), "reduced-states")
	}
}

// BenchmarkInlinedCount measures the inlining ablation metric (E15).
func BenchmarkInlinedCount(b *testing.B) {
	c, err := core.New(6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inlined, err := analysis.InlinedInstructionCount(c.Program)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(inlined), "inlined-instructions")
	}
}

// BenchmarkAblationScheduler compares schedulers on a converted protocol:
// interactions until the leader election completes.
func BenchmarkAblationScheduler(b *testing.B) {
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
		b.Fatal(err)
	}
	res, err := convert.Convert(machine)
	if err != nil {
		b.Fatal(err)
	}
	p := res.Protocol
	m := int64(res.NumPointers) + 3
	schedulers := map[string]func(seed int64) sched.Scheduler{
		"random-pair":     func(seed int64) sched.Scheduler { return sched.NewBatchRandomPair(p, sched.NewRand(seed)) },
		"transition-fair": func(seed int64) sched.Scheduler { return sched.NewTransitionFair(p, sched.NewRand(seed)) },
	}
	for name, mk := range schedulers {
		b.Run(name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				c, err := p.InitialConfig(m)
				if err != nil {
					b.Fatal(err)
				}
				s := mk(int64(i))
				steps := int64(0)
				for !res.Elected(c) {
					s.Step(c)
					steps++
					if steps > 50_000_000 {
						b.Fatal("election did not converge")
					}
				}
				total += steps
			}
			b.ReportMetric(float64(total)/float64(b.N), "steps-to-elect")
		})
	}
}
