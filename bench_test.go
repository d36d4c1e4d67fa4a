// Package repro's root benchmark harness: one benchmark per experiment of
// DESIGN.md's index. The benchmarks regenerate the paper's artefacts under
// `go test -bench=. -benchmem` and report domain-specific metrics
// (states/level, interactions/decision, …) alongside time and allocations.
//
//	E1  Table 1    → BenchmarkTable1StateComplexity
//	E2  Figure 1   → BenchmarkFigure1Interpreter / BenchmarkFigure1ExactCheck
//	E3  Figure 2   → BenchmarkFigure2Classification
//	E4  Fig 3/5/6/7→ BenchmarkCompilePipeline
//	E5  Figure 4   → BenchmarkConvertPipeline
//	E6  Theorem 3  → BenchmarkTheorem3Decide
//	E9  Theorem 5  → BenchmarkTheorem5Accounting
//	E10 Lemma 15   → BenchmarkLeaderElection
//	E11 Theorem 2  → BenchmarkTheorem2Robustness
//	E12 §1         → BenchmarkConvergence
//	E17 shrink     → BenchmarkShrinkPipeline / BenchmarkShrinkConvert /
//	                 BenchmarkShrinkExplore, and the pipeline's two
//	                 bookkeeping steps: BenchmarkCompactTransitions /
//	                 BenchmarkMachineValidate
//
// The scheduler-throughput benchmarks (BenchmarkRandomPairStep,
// BenchmarkBatchStepN, BenchmarkMeasureConvergence) compare the per-step
// uniform random-pair scheduler against the batched fast path on a
// null-interaction-dominated protocol — the regime of every converted
// machine, where a single instruction-pointer agent makes all but Θ(1/m)
// of interactions null. BenchmarkSamplerBuild times what those samplers
// cost to build on the shrunk converted protocols.
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

// BenchmarkTable1StateComplexity regenerates the Table 1 rows (E1): the
// full construction + compilation + state-count pipeline per level.
func BenchmarkTable1StateComplexity(b *testing.B) {
	for n := 1; n <= 6; n++ {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				c, err := core.New(n)
				if err != nil {
					b.Fatal(err)
				}
				m, err := compile.Compile(c.Program)
				if err != nil {
					b.Fatal(err)
				}
				_, states, err = convert.CountStates(m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(states), "protocol-states")
		})
	}
}

// BenchmarkFigure1Interpreter decides 4 ≤ m < 7 at the program level (E2).
func BenchmarkFigure1Interpreter(b *testing.B) {
	prog := popprog.Figure1Program()
	for _, m := range []int64{3, 5, 8} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			want := m >= 4 && m < 7
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := popprog.DecideTotal(prog, m, popprog.DecideOptions{
					Seed: int64(i), Budget: 400_000, TruthProb: 0.8, Attempts: 5,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Output != want {
					b.Fatalf("m=%d decided %v", m, res.Output)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/decision")
		})
	}
}

// BenchmarkFigure1ExactCheck model-checks the compiled Figure 1 machine for
// one population size over all placements (E2, exact half).
func BenchmarkFigure1ExactCheck(b *testing.B) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		b.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var initial []*popmachine.Config
		multiset.Enumerate(len(machine.Registers), 5, func(regs *multiset.Multiset) {
			cfg, err := machine.InitialConfig(regs)
			if err != nil {
				b.Fatal(err)
			}
			initial = append(initial, cfg)
		})
		res, err := explore.ExploreParallel[*popmachine.Config](sys, initial, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.StabilisesTo(true) {
			b.Fatal("m=5 must be accepted")
		}
		b.ReportMetric(float64(res.NumStates), "reachable-states")
	}
}

// BenchmarkFigure2Classification classifies random configurations (E3).
func BenchmarkFigure2Classification(b *testing.B) {
	c, err := core.New(3)
	if err != nil {
		b.Fatal(err)
	}
	rng := sched.NewRand(1)
	cfgs := make([]*multiset.Multiset, 64)
	for i := range cfgs {
		cfg := multiset.New(c.NumRegisters())
		sched.RandomComposition(rng, cfg, 60)
		cfgs[i] = cfg
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Classify(cfgs[i%len(cfgs)], 3)
	}
}

// BenchmarkCompilePipeline lowers the construction's program (E4: the
// Figure 3/5/6/7 lowering rules at scale).
func BenchmarkCompilePipeline(b *testing.B) {
	for n := 1; n <= 4; n++ {
		c, err := core.New(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				m, err := compile.Compile(c.Program)
				if err != nil {
					b.Fatal(err)
				}
				size = m.Size()
			}
			b.ReportMetric(float64(size), "machine-size")
		})
	}
}

// BenchmarkConvertPipeline materialises a full protocol (E5: the Figure 4
// instruction gadgets) for the Figure 1 machine.
func BenchmarkConvertPipeline(b *testing.B) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := convert.Convert(machine)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Protocol.Transitions)), "transitions")
	}
}

// BenchmarkShrinkPipeline runs E17's counting path — the machine-level
// optimization passes plus state counting, no transition table — per
// construction level. The removal metrics are read back from the `opt`
// obs group, so the benchmark record (BENCH_simulate.json via
// scripts/bench.sh) doubles as a regression trap for the pipeline's
// instrumented state/instruction removal totals.
func BenchmarkShrinkPipeline(b *testing.B) {
	for n := 1; n <= 4; n++ {
		c, err := core.New(n)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			met := obs.Enable()
			defer obs.Disable()
			for i := 0; i < b.N; i++ {
				m, err := compile.Compile(c.Program)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := convert.OptimizeStates(m); err != nil {
					b.Fatal(err)
				}
			}
			o, div := met.Opt(), float64(b.N)
			b.ReportMetric(float64(o.StatesRemoved.Load())/div, "states-removed")
			b.ReportMetric(float64(o.InstrsRemoved.Load())/div, "instrs-removed")
			b.ReportMetric(float64(o.DomainValuesRemoved.Load())/div, "domain-values-removed")
		})
	}
}

// BenchmarkShrinkConvert materialises the optimized Figure 1 protocol (full
// pipeline: machine passes, conversion, reduce, compact). Its transitions
// metric is directly comparable to BenchmarkConvertPipeline's plain
// conversion of the same machine.
func BenchmarkShrinkConvert(b *testing.B) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	met := obs.Enable()
	defer obs.Disable()
	for i := 0; i < b.N; i++ {
		res, _, err := convert.Optimize(machine)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Protocol.Transitions)), "transitions")
	}
	o, div := met.Opt(), float64(b.N)
	b.ReportMetric(float64(o.StatesRemoved.Load())/div, "states-removed")
	b.ReportMetric(float64(o.TransitionsRemoved.Load())/div, "transitions-removed")
}

// BenchmarkCompactTransitions dedups the table the shrink pipeline hands
// protocol.CompactTransitions for Figure 1: the reduced conversion of the
// shrunk machine. The transitions-in and transitions metrics are the
// table before and after.
func BenchmarkCompactTransitions(b *testing.B) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		b.Fatal(err)
	}
	opt, _, err := compile.OptimizeMachine(machine)
	if err != nil {
		b.Fatal(err)
	}
	res, err := convert.Convert(opt)
	if err != nil {
		b.Fatal(err)
	}
	reduced, _, err := protocol.Reduce(res.Protocol)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var kept int
	for i := 0; i < b.N; i++ {
		out, _, _, err := protocol.CompactTransitions(reduced)
		if err != nil {
			b.Fatal(err)
		}
		kept = len(out.Transitions)
	}
	b.ReportMetric(float64(len(reduced.Transitions)), "transitions-in")
	b.ReportMetric(float64(kept), "transitions")
}

// BenchmarkMachineValidate checks the compiled Theorem 1 machine at n = 6,
// the largest the build workload counts states for; the IP jumps dominate
// its domain checks.
func BenchmarkMachineValidate(b *testing.B) {
	c, err := core.New(6)
	if err != nil {
		b.Fatal(err)
	}
	m, err := compile.Compile(c.Program)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Validate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.Size()), "machine-size")
}

// BenchmarkShrinkExplore re-runs the exact explorer (the engine, on one
// worker) over the x ≥ 1 protocol before and after the shrink pipeline: the
// same decision problem on the same population, so the reachable-states and
// wall-clock gap is exactly what the pipeline buys the model checker.
func BenchmarkShrinkExplore(b *testing.B) {
	machine, err := compile.Compile(geOneProgram())
	if err != nil {
		b.Fatal(err)
	}
	plain, err := convert.Convert(machine)
	if err != nil {
		b.Fatal(err)
	}
	opt, _, err := convert.Optimize(machine)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name string
		res  *convert.Result
	}{{"plain", plain}, {"optimized", opt}} {
		b.Run(v.name, func(b *testing.B) {
			p := v.res.Protocol
			m := int64(v.res.NumPointers) + 1 // |F| pointer agents + one input
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := p.InitialConfig(m)
				if err != nil {
					b.Fatal(err)
				}
				res, err := explore.ExploreParallel[*multiset.Multiset](
					explore.NewProtocolSystem(p), []*multiset.Multiset{c}, explore.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				if !res.StabilisesTo(true) {
					b.Fatalf("%s protocol does not decide 1 ≥ 1", v.name)
				}
				b.ReportMetric(float64(res.NumStates), "reachable-states")
			}
		})
	}
}

// BenchmarkTheorem3Decide decides m = k(n) with the construction (E6).
func BenchmarkTheorem3Decide(b *testing.B) {
	for n := 1; n <= 2; n++ {
		c, err := core.New(n)
		if err != nil {
			b.Fatal(err)
		}
		k := c.K.Int64()
		b.Run(fmt.Sprintf("n=%d/m=k=%d", n, k), func(b *testing.B) {
			b.ReportAllocs()
			var restarts int64
			for i := 0; i < b.N; i++ {
				res, err := popprog.DecideTotal(c.Program, k, popprog.DecideOptions{
					Seed: int64(i), Budget: 6_000_000, TruthProb: 0.85, Attempts: 6,
					RestartHint: c.RestartHint(), HintProb: 0.3,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Output {
					b.Fatalf("m=k=%d rejected", k)
				}
				restarts += res.Restarts
			}
			b.ReportMetric(float64(restarts)/float64(b.N), "restarts/decision")
		})
	}
}

// BenchmarkTheorem5Accounting measures the double-conversion size pipeline
// (E9).
func BenchmarkTheorem5Accounting(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := experiments.Theorem5(5)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

// geOneProgram is the minimal x ≥ 1 program used by the election and
// shrink-explore benchmarks.
func geOneProgram() *popprog.Program {
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

// BenchmarkLeaderElection runs ⟨elect⟩ to completion under random pairing
// (E10, Lemma 15).
func BenchmarkLeaderElection(b *testing.B) {
	machine, err := compile.Compile(geOneProgram())
	if err != nil {
		b.Fatal(err)
	}
	res, err := convert.Convert(machine)
	if err != nil {
		b.Fatal(err)
	}
	p := res.Protocol
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := p.InitialConfig(int64(res.NumPointers) + 3)
		if err != nil {
			b.Fatal(err)
		}
		s := sched.NewBatchRandomPair(p, sched.NewRand(int64(i)))
		steps := 0
		for !res.Elected(c) {
			s.Step(c)
			steps++
			if steps > 10_000_000 {
				b.Fatal("election did not converge")
			}
		}
		b.ReportMetric(float64(steps), "interactions")
	}
}

// BenchmarkTheorem2Robustness runs the noisy-input comparison (E11).
func BenchmarkTheorem2Robustness(b *testing.B) {
	unary, err := baseline.UnaryThreshold(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		noisy, err := baseline.NoisyConfig(unary, []int64{2}, map[string]int64{"K": 1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := explore.ExploreParallel(explore.NewProtocolSystem(unary),
			[]*multiset.Multiset{noisy}, explore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Consensus().String() != "true" {
			b.Fatal("the 1-aware baseline should be fooled")
		}
	}
}

// benchChain builds a null-interaction-dominated protocol with support
// size k+1: a single leader L cycles each follower F_i to F_{i+1}; any pair
// of followers is null, so with one leader among m agents only ≈ 2/m of
// ordered pairs are reactive — the same shape as a converted machine's
// instruction-pointer agent.
func benchChain(b *testing.B, k int) (*protocol.Protocol, *multiset.Multiset) {
	b.Helper()
	pb := protocol.NewBuilder(fmt.Sprintf("chain%d", k))
	followers := make([]string, k)
	for i := range followers {
		followers[i] = fmt.Sprintf("F%d", i)
	}
	pb.Input(append([]string{"L"}, followers...)...)
	for i := range followers {
		pb.Transition("L", followers[i], "L", followers[(i+1)%k])
	}
	pb.Accepting("L")
	p, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int64, k+1)
	counts[0] = 1 // one leader
	for i := 1; i <= k; i++ {
		counts[i] = 8
	}
	c, err := p.InitialConfig(counts...)
	if err != nil {
		b.Fatal(err)
	}
	return p, c
}

// BenchmarkBatchStepN drives null-dominated chain protocols through the
// exact sampler's batched fast path. Compare its ns/interaction against
// internal/sched's BenchmarkRandomPairStep, the per-step reference on the
// same protocols: the geometric null-skip should win by well over the 5×
// the acceptance bar asks for.
func BenchmarkBatchStepN(b *testing.B) {
	const chunk = 1 << 14
	for _, k := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("support=%d", k+1), func(b *testing.B) {
			p, c := benchChain(b, k)
			s := sched.NewBatchRandomPair(p, sched.NewRand(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepN(c, chunk)
			}
			b.ReportMetric(
				float64(b.Elapsed().Nanoseconds())/(float64(b.N)*chunk), "ns/interaction")
		})
	}
}

// samplerSink keeps BenchmarkSamplerBuild's results live.
var samplerSink any

// BenchmarkSamplerBuild times what a run pays before its first interaction
// on the paper's converted protocols, both shrunk: the pair index
// (protocol.NewStepper) and the exact, batch and auto samplers built on it.
// The samplers come from simulate.NewScheduler at m = AutoFluidThreshold,
// where auto builds the fluid hybrid.
func BenchmarkSamplerBuild(b *testing.B) {
	czerner, err := core.New(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, prog := range []struct {
		name string
		p    *popprog.Program
	}{{"figure1", popprog.Figure1Program()}, {"czerner1", czerner.Program}} {
		machine, err := compile.Compile(prog.p)
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := convert.Optimize(machine)
		if err != nil {
			b.Fatal(err)
		}
		p := res.Protocol
		b.Run(prog.name+"/index", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				samplerSink = protocol.NewStepper(p)
			}
		})
		for _, kernel := range []string{simulate.KernelExact, simulate.KernelBatch, simulate.KernelAuto} {
			b.Run(prog.name+"/kernel="+kernel, func(b *testing.B) {
				opts := simulate.Options{Kernel: kernel}
				rng := sched.NewRand(1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := simulate.NewScheduler(p, rng, opts, simulate.AutoFluidThreshold)
					if err != nil {
						b.Fatal(err)
					}
					samplerSink = s
				}
			})
		}
	}
}

// BenchmarkMeasureConvergence measures the run-level worker pool: the same
// batched majority measurement, sequential vs one worker per CPU. The
// results are bit-identical either way; only the wall clock moves.
func BenchmarkMeasureConvergence(b *testing.B) {
	maj, err := baseline.Majority()
	if err != nil {
		b.Fatal(err)
	}
	ws := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		ws = append(ws, n)
	}
	for _, w := range ws {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := simulate.MeasureConvergence(maj, []int64{65, 64}, true, 8, 1,
					simulate.Options{MaxSteps: 100_000_000, BatchSize: 256, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvergence measures interactions-to-consensus under uniform
// random pairing across population sizes (E12); the per-size metric should
// grow super-linearly (Θ(m log m)–Θ(m²) interactions).
func BenchmarkConvergence(b *testing.B) {
	maj, err := baseline.Majority()
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int64{32, 64, 128, 256} {
		b.Run(fmt.Sprintf("majority/m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			var total int64
			for i := 0; i < b.N; i++ {
				c, err := maj.InitialConfig(m/2+1, m/2)
				if err != nil {
					b.Fatal(err)
				}
				// Hiding StepN keeps Run on the per-step uniform random-pair
				// path, so res.Steps counts single interactions.
				s := struct{ sched.Scheduler }{sched.NewBatchRandomPair(maj, sched.NewRand(int64(i)))}
				res, err := simulate.Run(maj, c, s, simulate.Options{MaxSteps: 500_000_000})
				if err != nil {
					b.Fatal(err)
				}
				total += res.Steps
			}
			b.ReportMetric(float64(total)/float64(b.N), "interactions")
		})
	}
}
