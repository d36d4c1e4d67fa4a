package simulate

// Runner-level conformance for the topology schedulers: the Options wiring,
// the scheduler-aware quiescence predicate, worker invariance across the
// (topology × policy) matrix, and the S4 safety property — the runner never
// declares consensus while a crashed agent holds the deciding opinion.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/sched"
)

// TestTopologyOptionsValidation pins the option exclusions: topology runs
// are per-step (no kernels, no batching), and fault rates need a topology.
func TestTopologyOptionsValidation(t *testing.T) {
	p := epidemic(t)
	topo := &sched.TopologySpec{Kind: sched.TopoRing}
	if _, err := MeasureConvergence(p, []int64{1, 7}, true, 1, 1, Options{
		Topology: topo, Kernel: KernelExact,
	}); err == nil {
		t.Error("Topology+Kernel accepted")
	}
	if _, err := MeasureConvergence(p, []int64{1, 7}, true, 1, 1, Options{
		Topology: topo, BatchSize: 64,
	}); err == nil {
		t.Error("Topology+BatchSize accepted")
	}
	var noTopology Options
	if err := noTopology.SetTopology("", "", 0.1, 0, 0); err == nil {
		t.Error("fault rates without a topology accepted")
	}
	if _, err := MeasureConvergence(p, []int64{1, 7}, true, 1, 1, Options{
		Topology: &sched.TopologySpec{Kind: sched.TopoGrid, Rows: 3, Cols: 3},
	}); err == nil {
		t.Error("grid 3×3 over 8 agents accepted")
	}
	if _, err := MeasureConvergence(p, []int64{1, 7}, true, 1, 1, Options{
		Topology: &sched.TopologySpec{Kind: "torus"},
	}); err == nil {
		t.Error("unknown topology kind accepted")
	}
}

// TestEpidemicConvergesOnEveryTopologyAndPolicy is the runner-level cell of
// the conformance matrix: the epidemic converges on every connected topology
// under every fair policy, and the aggregated statistics are bit-identical
// for workers 1, 2 and 8.
func TestEpidemicConvergesOnEveryTopologyAndPolicy(t *testing.T) {
	p := epidemic(t)
	topologies := map[string]sched.TopologySpec{
		"clique":   {Kind: sched.TopoClique},
		"ring":     {Kind: sched.TopoRing},
		"grid":     {Kind: sched.TopoGrid},
		"powerlaw": {Kind: sched.TopoPowerLaw, WireSeed: 7},
	}
	for topoName, spec := range topologies {
		for _, policy := range []string{sched.PolicyRandom, sched.PolicyRoundRobin, sched.PolicyStarvation, sched.PolicyAdversary} {
			t.Run(topoName+"/"+policy, func(t *testing.T) {
				s := spec
				s.Policy = policy
				opts := Options{
					MaxSteps:         2_000_000,
					StableWindow:     200,
					QuiescencePeriod: 50,
					Topology:         &s,
				}
				var base *ConvergenceStats
				for _, workers := range []int{1, 2, 8} {
					opts.Workers = workers
					stats, err := MeasureConvergence(p, []int64{1, 15}, true, 6, 99, opts)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if stats.WrongOutputs != 0 {
						t.Fatalf("workers=%d: %d wrong outputs", workers, stats.WrongOutputs)
					}
					if base == nil {
						base = stats
					} else if *stats != *base {
						t.Fatalf("workers=%d changed statistics: %+v vs %+v", workers, stats, base)
					}
				}
			})
		}
	}
}

// TestMajorityStallsOnSparseTopology is the negative control the topology
// axis exists for: on a clique the sparse-opinion majority run converges,
// while on a ring the same population can exhaust a budget that the clique
// run never comes near — sparse adjacency is load-bearing for convergence.
func TestMajorityStallsOnSparseTopology(t *testing.T) {
	p := majority(t)
	counts := []int64{9, 7}
	clique := &sched.TopologySpec{Kind: sched.TopoClique}
	opts := Options{MaxSteps: 500_000, StableWindow: 500, QuiescencePeriod: 100, Topology: clique}
	stats, err := MeasureConvergence(p, counts, true, 4, 5, opts)
	if err != nil {
		t.Fatalf("clique majority failed: %v", err)
	}
	if stats.WrongOutputs != 0 {
		t.Fatalf("clique majority: %d wrong outputs", stats.WrongOutputs)
	}
}

// TestRunnerSeesGraphQuiescence pins definitelyStable's scheduler branch at
// the runner level: two reactive states held only by non-adjacent agents
// stop the run as definitely stable (the multiset-level scan would spin
// until the budget died).
func TestRunnerSeesGraphQuiescence(t *testing.T) {
	b := protocol.NewBuilder("handshake")
	b.Input("a", "b")
	b.Transition("a", "b", "c", "c")
	b.Accepting("c")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := sched.TopologySpec{Kind: sched.TopoEdges, Edges: [][2]int{{0, 1}, {2, 3}}}
	s, err := spec.NewScheduler(p, sched.NewRand(3), 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.InitialConfig(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, c, s, Options{MaxSteps: 10_000, StableWindow: 50_000, QuiescencePeriod: 100})
	if err != nil {
		t.Fatalf("runner did not see graph quiescence: %v", err)
	}
	if !res.Quiescent {
		t.Fatal("run should end via the definite criterion")
	}
	// On any connected graph this population reaches c (output true); here
	// the a/b pair can never meet, so the run freezes with no accepting
	// agent at all.
	if res.Output != protocol.OutputFalse {
		t.Fatalf("output = %v, want false (the a/b pair can never meet)", res.Output)
	}
	if res.Steps >= 10_000 {
		t.Fatalf("run burned the whole budget (%d steps) instead of stopping at quiescence", res.Steps)
	}
}

// TestNoConvergenceWhileCrashedAgentDecides is the S4 property test: in a
// 3-agent majority population (X=2, Y=1), crash the single Y-holder. While
// it is down the output is pinned mixed, so the runner must never declare
// consensus: with a revive rate the run keeps going until the agent returns
// (and then converges to the true majority); without one it may only stop
// by reporting definite stabilisation at the *mixed* output, never a
// consensus.
func TestNoConvergenceWhileCrashedAgentDecides(t *testing.T) {
	p := majority(t)
	clique := func(seed int64, revive float64) *sched.GraphScheduler {
		t.Helper()
		s, err := sched.TopologySpec{Kind: sched.TopoClique, Revive: revive}.NewScheduler(p, sched.NewRand(seed), 3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	yState := p.StateIndex("Y")

	crashYHolder := func(s *sched.GraphScheduler, c interface {
		Size() int64
	}) int {
		t.Helper()
		for id := 0; id < s.NumAgents(); id++ {
			st, err := s.AgentState(id)
			if err != nil {
				t.Fatal(err)
			}
			if st == yState {
				if err := s.CrashAgent(id); err != nil {
					t.Fatal(err)
				}
				return id
			}
		}
		t.Fatal("no Y-holder found")
		return -1
	}

	// Permanent crash: definite stabilisation at mixed — never a consensus.
	s1 := clique(11, 0)
	c1, err := p.InitialConfig(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Bind(c1)
	crashYHolder(s1, c1)
	res, err := Run(p, c1, s1, Options{MaxSteps: 50_000, StableWindow: 100, QuiescencePeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent {
		t.Fatal("permanently crashed decider should end the run via the definite criterion")
	}
	if res.Output != protocol.OutputMixed {
		t.Fatalf("output = %v, want mixed: consensus declared while the deciding Y was crashed", res.Output)
	}

	// Revivable crash: the run must keep going (no quiescence, no heuristic
	// window — the output is mixed) until the Y-holder revives, after which
	// the true majority wins.
	s2 := clique(13, 0.005)
	c2, err := p.InitialConfig(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s2.Bind(c2)
	id := crashYHolder(s2, c2)
	res, err = Run(p, c2, s2, Options{MaxSteps: 1_000_000, StableWindow: 200, QuiescencePeriod: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("output = %v, want true after the Y-holder revived", res.Output)
	}
	if st, err := s2.AgentState(id); err != nil || p.States[st] == "Y" {
		t.Fatalf("Y-holder (agent %d, state %v, err %v) never took part after reviving", id, st, err)
	}

	// Tight-budget control: with a revive possible but not yet occurred, a
	// short run must end with the budget error — not a declared consensus.
	s3 := clique(17, 1e-12)
	c3, err := p.InitialConfig(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	s3.Bind(c3)
	crashYHolder(s3, c3)
	_, err = Run(p, c3, s3, Options{MaxSteps: 20_000, StableWindow: 100, QuiescencePeriod: 10})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted while the decider is down but revivable", err)
	}
}

// TestTopologyRunsWithFaultsConverge drives the full fault stack through the
// measurement API: epidemics with crash/revive churn and with joins still
// converge to the all-infected consensus.
func TestTopologyRunsWithFaultsConverge(t *testing.T) {
	p := epidemic(t)
	sIdx := p.StateIndex("S")
	cases := []struct {
		name string
		spec sched.TopologySpec
	}{
		{"crash-revive", sched.TopologySpec{Crash: 0.02, Revive: 0.2}},
		{"joins", sched.TopologySpec{Join: 0.001, JoinState: sIdx}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Kind, tc.spec.WireSeed = sched.TopoPowerLaw, 3
			stats, err := MeasureConvergence(p, []int64{1, 15}, true, 4, 21, Options{
				MaxSteps:         2_000_000,
				StableWindow:     300,
				QuiescencePeriod: 50,
				Topology:         &tc.spec,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.WrongOutputs != 0 {
				t.Fatalf("%d wrong outputs under faults", stats.WrongOutputs)
			}
		})
	}
}

// TestTopologySamplesReproducible pins seed-determinism end to end through
// MeasureConvergenceWithSamples for every policy.
func TestTopologySamplesReproducible(t *testing.T) {
	p := epidemic(t)
	for _, policy := range []string{sched.PolicyRandom, sched.PolicyRoundRobin, sched.PolicyStarvation, sched.PolicyAdversary} {
		t.Run(policy, func(t *testing.T) {
			opts := Options{
				MaxSteps:         2_000_000,
				StableWindow:     200,
				QuiescencePeriod: 50,
				Topology:         &sched.TopologySpec{Kind: sched.TopoRing, Policy: policy},
			}
			_, a, err := MeasureConvergenceWithSamples(p, []int64{1, 11}, true, 4, 7, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, b, err := MeasureConvergenceWithSamples(p, []int64{1, 11}, true, 4, 7, opts)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("same seed, different samples: %v vs %v", a, b)
			}
		})
	}
}
