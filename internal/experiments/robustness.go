package experiments

import (
	"errors"
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

// Theorem2 regenerates E11: the robustness comparison of §8. Every prior
// threshold construction is 1-aware — planting a single noise agent in the
// "threshold reached" state flips its decision — while the paper's
// construction tolerates arbitrary noise as long as the intended agents
// number at least |Q| (almost self-stabilisation, Definition 7).
//
// The baselines are checked exactly (model checking of the noisy initial
// configuration); the paper-side witness is the program-level construction
// run from configurations with noise planted in arbitrary registers, which
// by the population-program semantics (§4: "all registers may have
// arbitrary values") must still decide the total correctly.
//
// The exact baseline verdicts run on the parallel exploration engine
// configured by exOpts (worker count, memory budget, spill directory);
// verdicts are identical for any worker count and any budget.
func Theorem2(exOpts explore.Options) (*Table, error) {
	t := &Table{
		ID:    "E11 (Theorem 2)",
		Title: "robustness: 1-aware baselines vs the almost-self-stabilising construction",
		Columns: []string{
			"protocol", "intended input", "noise", "total m", "φ(m)", "decided", "robust?",
		},
		Notes: []string{
			"baselines: exact verdicts over all fair runs of the noisy configuration",
			"this paper: program-level runs with adversarial register placement (n = 2, k = 10)",
		},
	}

	// Unary baseline, threshold 5, 2 intended agents + 1 noise agent in K:
	// every fair run wrongly accepts.
	unary, err := baseline.UnaryThreshold(5)
	if err != nil {
		return nil, err
	}
	noisy, err := baseline.NoisyConfig(unary, []int64{2}, map[string]int64{"K": 1})
	if err != nil {
		return nil, err
	}
	res, err := explore.ExploreParallel(explore.NewProtocolSystem(unary),
		[]*multiset.Multiset{noisy}, exOpts)
	if err != nil {
		return nil, err
	}
	decided := res.Consensus()
	t.AddRow("unary x ≥ 5 [4]", "2 agents", "1 agent in K", 3, "false",
		decided, robust(decided, protocol.OutputFalse))

	// Binary baseline, threshold 8, same story.
	binary, err := baseline.BinaryThreshold(3)
	if err != nil {
		return nil, err
	}
	noisyB, err := baseline.NoisyConfig(binary, []int64{2}, map[string]int64{"K": 1})
	if err != nil {
		return nil, err
	}
	resB, err := explore.ExploreParallel(explore.NewProtocolSystem(binary),
		[]*multiset.Multiset{noisyB}, exOpts)
	if err != nil {
		return nil, err
	}
	decidedB := resB.Consensus()
	t.AddRow("binary x ≥ 8 [14]", "2 agents", "1 agent in K", 3, "false",
		decidedB, robust(decidedB, protocol.OutputFalse))

	// The paper's construction (n = 2, k = 10): noise scattered across
	// high-level registers, totals on both sides of the threshold.
	c, err := core.New(2)
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		total int64
		desc  string
	}{
		{7, "7 agents scattered"},
		{10, "10 agents scattered"},
		{12, "12 agents scattered"},
	} {
		cfg := adversarialPlacement(c, tc.total)
		out, err := popprog.Decide(c.Program, cfg, popprog.DecideOptions{
			Seed: tc.total, Budget: 6_000_000, TruthProb: 0.85, Attempts: 5,
			RestartHint: c.RestartHint(), HintProb: 0.3,
		})
		if err != nil {
			return nil, fmt.Errorf("theorem 2, m=%d: %w", tc.total, err)
		}
		want := tc.total >= 10
		outStr := protocol.OutputFalse
		if out.Output {
			outStr = protocol.OutputTrue
		}
		wantOut := protocol.OutputFalse
		if want {
			wantOut = protocol.OutputTrue
		}
		t.AddRow("this paper x ≥ 10", "—", tc.desc, tc.total, fmtBool(want),
			outStr, robust(outStr, wantOut))
	}
	return t, nil
}

func robust(got, want protocol.Output) string {
	if got == want {
		return "yes"
	}
	return "NO (fooled)"
}

// Theorem2Churn regenerates E11b: the §8 robustness axis extended from
// static initial noise to *churn* — faults injected while the protocol runs,
// through the fault-injection layer of the topology schedulers. Where E11
// plants one bad agent before the run starts, E11b lets the adversary crash,
// revive and inject agents mid-execution:
//
//   - crash/revive churn keeps the configuration's counts intact (a crashed
//     agent holds its state, it just stops interacting), so a correct
//     protocol must still decide its input;
//   - joins in the absorbing state K are the dynamic version of E11's
//     1-awareness attack: a single injected K converts the population and
//     flips the decision of a threshold that was never reached;
//   - joins in the input state are benign churn — genuinely new input units —
//     and the decision must track the grown population.
//
// Every row is a fixed-seed deterministic run (the fault layer draws from
// the same seeded stream as the scheduler), so the table is golden-pinned
// cell for cell.
func Theorem2Churn(seed int64) (*Table, error) {
	t := &Table{
		ID:    "E11b (Theorem 2, churn)",
		Title: "robustness under churn: faults injected during the run, not just at initialisation",
		Columns: []string{
			"protocol", "intended input", "churn", "decided", "final m", "robust?",
		},
		Notes: []string{
			"clique topology, uniform alive-edge scheduler with crash/revive/join fault injection",
			"joins in an input state are genuine new input: robust = the decision tracks the final population",
		},
	}
	unary, err := baseline.UnaryThreshold(5)
	if err != nil {
		return nil, err
	}
	churnRun := func(p *protocol.Protocol, cfg *multiset.Multiset, faults sched.TopologySpec,
		steps int64, s int64) (protocol.Output, int64, error) {
		faults.Kind = sched.TopoClique
		sch, err := faults.NewScheduler(p, sched.NewRand(s), cfg.Size())
		if err != nil {
			return protocol.OutputMixed, 0, err
		}
		for i := int64(0); i < steps; i++ {
			sch.Step(cfg)
		}
		return p.OutputOf(cfg), cfg.Size(), nil
	}

	for _, tc := range []struct {
		input  int64
		churn  string
		faults sched.TopologySpec
		want   protocol.Output
	}{
		// Crash/revive only: counts are untouched, the decision must stand.
		{7, "crash 0.2% / revive 0.4%",
			sched.TopologySpec{Crash: 0.002, Revive: 0.004},
			protocol.OutputTrue},
		// The 1-awareness attack, dynamic edition: one join in K suffices.
		{4, "joins in K (0.05%)",
			sched.TopologySpec{Join: 0.0005, JoinState: unary.StateIndex("K")},
			protocol.OutputFalse},
		// Benign churn: joins carry genuine input units past the threshold.
		{4, "joins in v1 (0.05%)",
			sched.TopologySpec{Join: 0.0005, JoinState: unary.StateIndex("v1")},
			protocol.OutputTrue},
	} {
		cfg, err := baseline.NoisyConfig(unary, []int64{tc.input}, nil)
		if err != nil {
			return nil, err
		}
		decided, finalM, err := churnRun(unary, cfg, tc.faults, 200_000, seed)
		if err != nil {
			return nil, fmt.Errorf("theorem 2 churn, unary input %d: %w", tc.input, err)
		}
		t.AddRow("unary x ≥ 5 [4]", fmt.Sprintf("%d agents", tc.input), tc.churn,
			decided, finalM, robust(decided, tc.want))
	}

	// The ⟨elect⟩ phase of the x ≥ 1 program, compiled (§7.2) and converted
	// (§7.3), under crash/revive churn: pointer agents may be frozen
	// mid-rendezvous, but as long as revival outpaces crashing the phase must
	// still complete (E16 measures the same phase per topology; this row
	// measures it per fault regime).
	res, err := ge1Converted()
	if err != nil {
		return nil, err
	}
	mElect := int64(res.NumPointers) + 9
	cfg, err := res.Protocol.InitialConfig(mElect)
	if err != nil {
		return nil, err
	}
	sch, err := sched.TopologySpec{Kind: sched.TopoClique, Crash: 0.001, Revive: 0.01}.
		NewScheduler(res.Protocol, sched.NewRand(seed+211), mElect)
	if err != nil {
		return nil, err
	}
	steps, done := elect(res, sch, cfg, 2_000_000)
	elected, verdict := "stalled", "NO (stalled)"
	if done {
		elected, verdict = fmt.Sprintf("elected (%d steps)", steps), "yes"
	}
	t.AddRow("threshold x ≥ 1 (§7.2–7.3, ⟨elect⟩)", fmt.Sprintf("%d agents", mElect),
		"crash 0.1% / revive 1%", elected, cfg.Size(), verdict)
	return t, nil
}

// adversarialPlacement scatters total agents round-robin across a hostile
// set of registers (a high-level register, a bar register, R and a level-1
// register) — configurations no "intended" initialisation would produce.
func adversarialPlacement(c *core.Construction, total int64) *multiset.Multiset {
	cfg := multiset.New(c.NumRegisters())
	targets := []int{c.X(2), c.YBar(2), c.R(), c.X(1)}
	for u := int64(0); u < total; u++ {
		cfg.Add(targets[u%int64(len(targets))], 1)
	}
	return cfg
}

// Convergence regenerates E12: interactions to convergence under the
// uniform random-pair scheduler, the cost model of §1. Majority and the
// unary threshold are compared across population sizes; the shape to
// reproduce is super-linear interaction counts (≈ m log m to m²), i.e.
// Θ(polylog)–Θ(m) parallel time.
//
// opts may set only Kernel, BatchSize and Workers (see convergenceOptions).
// opts.Kernel selects the interaction kernel (empty means
// simulate.KernelExact) and opts.BatchSize its chunk size (0 means 65,536);
// convergence steps are reported at chunk granularity. "batch" and
// large-population "auto" runs use the count-based collision kernel, whose
// trajectories are statistically — not bit — identical to the exact
// sampler's. opts.Workers > 1 measures the runs on a worker pool; results
// are bit-identical for any worker count.
func Convergence(sizes []int64, runs int, seed int64, opts simulate.Options) (*Table, error) {
	t := &Table{
		ID:    "E12 (§1)",
		Title: "convergence cost under uniform random pairing",
		Columns: []string{
			"protocol", "m", "mean interactions", "mean parallel time", "wrong outputs",
		},
	}
	opts, err := convergenceOptions(opts)
	if err != nil {
		return nil, err
	}
	maj, err := baseline.Majority()
	if err != nil {
		return nil, err
	}
	for _, m := range sizes {
		x := m/2 + 1
		y := m - x
		stats, err := simulate.MeasureConvergence(maj, []int64{x, y}, true, runs, seed, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow("majority", m, fmt.Sprintf("%.0f", stats.MeanSteps),
			fmt.Sprintf("%.1f", stats.MeanParallel), stats.WrongOutputs)
	}
	unary, err := baseline.UnaryThreshold(8)
	if err != nil {
		return nil, err
	}
	for _, m := range sizes {
		stats, err := simulate.MeasureConvergence(unary, []int64{m}, m >= 8, runs, seed+1, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow("unary x ≥ 8", m, fmt.Sprintf("%.0f", stats.MeanSteps),
			fmt.Sprintf("%.1f", stats.MeanParallel), stats.WrongOutputs)
	}
	return t, nil
}

// convergenceOptions returns the options E12's runs use: the caller's
// kernel, chunk size and worker pool under a fixed bound of 2·10⁸ steps.
// E12 measures uniform random pairing under the runner's default
// stabilisation rules, so any other field set in o is an error rather than
// a silent change of the experiment.
func convergenceOptions(o simulate.Options) (simulate.Options, error) {
	run := simulate.Options{BatchSize: o.BatchSize, Kernel: o.Kernel, Workers: o.Workers}
	if o != run {
		return simulate.Options{}, errors.New("E12 takes only Kernel, BatchSize and Workers from its options")
	}
	run.MaxSteps = 200_000_000
	return run, nil
}
