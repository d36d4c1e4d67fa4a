package sched

// The scheduler-conformance suite: the contract every topology-restricted
// scheduler must honour, checked per (topology × policy) cell.
//
//   - Law exactness: on the clique, the graph scheduler's single-decision
//     outcome distribution equals RandomPair's, term by term, via the
//     recorded-RNG enumeration (uniform edge × uniform orientation is the
//     uniform ordered agent pair).
//   - Frequency conformance: under PolicyRandom every alive edge is selected
//     uniformly (one-sample chi-squared per topology); round-robin sweeps
//     are exactly even.
//   - Fairness: every enabled edge keeps firing under every policy, with and
//     without bounded fault rates; the starvation adversary's observed gaps
//     respect its bound+|E| guarantee.
//   - Reproducibility: the full decision trace (edge selections, faults,
//     final configuration) is a pure function of the seed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/multiset"
	"repro/internal/protocol"
)

// restless is a protocol that is reactive in every reachable configuration:
// whatever two states meet, some orientation has a non-silent candidate, and
// no configuration is ever silent. It drives the fairness and frequency
// tests, where the interaction graph — not the protocol — should decide what
// fires.
func restless(t *testing.T) *protocol.Protocol {
	t.Helper()
	b := protocol.NewBuilder("restless")
	b.Input("u", "v")
	b.Transition("u", "u", "u", "v")
	b.Transition("v", "v", "v", "u")
	b.Transition("u", "v", "u", "u")
	b.Accepting("u")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// conformanceTopologies is the topology axis of the conformance matrix, all
// over 8 agents.
func conformanceTopologies(t *testing.T) map[string]*Topology {
	t.Helper()
	build := func(topo *Topology, err error) *Topology {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	return map[string]*Topology{
		"clique":   build(CliqueTopology(8)),
		"ring":     build(RingTopology(8)),
		"grid":     build(GridTopology(2, 4)),
		"powerlaw": build(PowerLawTopology(8, 2, 7)),
		"edges": build(EdgeListTopology(8, [][2]int{
			{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {0, 4},
		})),
	}
}

var conformancePolicies = []string{PolicyRandom, PolicyRoundRobin, PolicyStarvation, PolicyAdversary}

// TestCliqueExactLawMatchesRandomPair is the exact half of the clique
// differential (S1): for every corpus population, the complete
// single-decision outcome distribution of the graph scheduler on the clique
// — uniform alive edge, uniform orientation, uniform candidate — must equal
// RandomPair's uniform-ordered-pair law as exact rationals.
func TestCliqueExactLawMatchesRandomPair(t *testing.T) {
	for _, tc := range equivalenceProtocols(t) {
		c, err := tc.p.InitialConfig(tc.init...)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := CliqueTopology(int(c.Size()))
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tc.p.Name+"/"+c.String(), func(t *testing.T) {
			pairLaw := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				newRandomPair(tc.p, src).Step(cl)
			})
			graphLaw := enumerateOutcomes(t, c, func(cl *multiset.Multiset, src *scriptSource) {
				s, err := newGraphScheduler(tc.p, topo, src, TopologySpec{})
				if err != nil {
					t.Fatal(err)
				}
				s.Step(cl)
			})
			if !ratDistsEqual(pairLaw, graphLaw) {
				t.Fatalf("clique graph law differs from RandomPair law:\n%v\nvs\n%v", pairLaw, graphLaw)
			}
		})
	}
}

// TestCliqueChiSquaredMatchesBatchRandomPair is the statistical half of the
// clique differential (S1): transition firing frequencies of the graph
// scheduler on a 30-agent clique vs BatchRandomPair's per-step sampler, from
// identical configurations with disjoint seed sets.
func TestCliqueChiSquaredMatchesBatchRandomPair(t *testing.T) {
	p := majorityForEquiv(t)
	c0, err := p.InitialConfig(16, 14)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := CliqueTopology(int(c0.Size()))
	if err != nil {
		t.Fatal(err)
	}
	const trials, steps = 150, 60
	perStep := firingCounts(t, p, c0, trials, steps, func(seed int64) BatchScheduler {
		s := NewBatchRandomPair(p, NewRand(seed))
		s.skipThreshold = 0 // per-step path only — the seed sampler's law
		return s
	}, false)
	graph := make(map[protocol.Transition]int64)
	for trial := 0; trial < trials; trial++ {
		s, err := newGraphScheduler(p, topo, NewRand(1_000_000+int64(trial)), TopologySpec{})
		if err != nil {
			t.Fatal(err)
		}
		s.onFire = func(tr protocol.Transition) { graph[tr]++ }
		c := c0.Clone()
		for i := 0; i < steps; i++ {
			s.Step(c)
		}
	}
	stat, df := chiSquared(perStep, graph, int64(trials)*int64(steps))
	if df < 1 {
		t.Fatalf("degenerate chi-squared: df=%d counts %v vs %v", df, perStep, graph)
	}
	if stat > 40 {
		t.Fatalf("chi-squared %0.1f (df=%d) exceeds bound 40:\nper-step %v\ngraph    %v",
			stat, df, perStep, graph)
	}
}

// chi2UniformBound is a generous (≈ 4σ) critical value for a one-sample
// uniformity test with the given degrees of freedom.
func chi2UniformBound(df int) float64 {
	return float64(df) + 4*math.Sqrt(2*float64(df)) + 12
}

// TestEdgeFrequenciesUniformPerTopology pins PolicyRandom's edge-firing law:
// on every topology, selection frequencies over a long restless run must be
// uniform across edges (one-sample chi-squared).
func TestEdgeFrequenciesUniformPerTopology(t *testing.T) {
	p := restless(t)
	for name, topo := range conformanceTopologies(t) {
		t.Run(name, func(t *testing.T) {
			s, err := newGraphScheduler(p, topo, NewRand(17), TopologySpec{})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, len(topo.Edges))
			s.onSelect = func(e int) { counts[e]++ }
			c, err := p.InitialConfig(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			const steps = 20000
			for i := 0; i < steps; i++ {
				s.Step(c)
			}
			exp := float64(steps) / float64(len(topo.Edges))
			var stat float64
			for _, n := range counts {
				d := float64(n) - exp
				stat += d * d / exp
			}
			df := len(topo.Edges) - 1
			if bound := chi2UniformBound(df); stat > bound {
				t.Fatalf("edge frequencies not uniform: chi-squared %0.1f > %0.1f (df=%d): %v",
					stat, bound, df, counts)
			}
		})
	}
}

// TestRoundRobinSweepsAreExactlyEven pins the round-robin contract: over
// k·|E| fault-free steps every edge is selected exactly k times, and a new
// configuration restarts the sweep at edge 0.
func TestRoundRobinSweepsAreExactlyEven(t *testing.T) {
	p := restless(t)
	for name, topo := range conformanceTopologies(t) {
		t.Run(name, func(t *testing.T) {
			s, err := newGraphScheduler(p, topo, NewRand(3), TopologySpec{Policy: PolicyRoundRobin})
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int64, len(topo.Edges))
			s.onSelect = func(e int) { counts[e]++ }
			c, err := p.InitialConfig(4, 4)
			if err != nil {
				t.Fatal(err)
			}
			const k = 25
			for i := 0; i < k*len(topo.Edges); i++ {
				s.Step(c)
			}
			for e, n := range counts {
				if n != k {
					t.Fatalf("edge %d selected %d times, want exactly %d: %v", e, n, k, counts)
				}
			}
			s.Step(c)
			var first []int
			s.onSelect = func(e int) { first = append(first, e) }
			s.Step(c.Clone())
			if len(first) != 1 || first[0] != 0 {
				t.Fatalf("sweep over a new configuration selected %v, want [0]", first)
			}
		})
	}
}

// TestFairnessEveryEdgeFires is the fairness cell of the conformance matrix:
// on every topology, under every policy, with no faults and with bounded
// crash/revive/join rates, every base edge keeps being selected.
func TestFairnessEveryEdgeFires(t *testing.T) {
	p := restless(t)
	faultsCases := map[string]TopologySpec{
		"fault-free": {},
		"faulty":     {Crash: 0.05, Revive: 0.5, Join: 0.01},
	}
	for topoName, topo := range conformanceTopologies(t) {
		for _, policy := range conformancePolicies {
			for fName, spec := range faultsCases {
				t.Run(fmt.Sprintf("%s/%s/%s", topoName, policy, fName), func(t *testing.T) {
					spec.Policy = policy
					s, err := newGraphScheduler(p, topo, NewRand(29), spec)
					if err != nil {
						t.Fatal(err)
					}
					counts := make([]int64, len(topo.Edges))
					s.onSelect = func(e int) {
						if e < len(counts) {
							counts[e]++
						}
					}
					c, err := p.InitialConfig(4, 4)
					if err != nil {
						t.Fatal(err)
					}
					const steps = 20000
					for i := 0; i < steps; i++ {
						s.Step(c)
					}
					for e, n := range counts {
						if n == 0 {
							t.Fatalf("edge %d (%v) never selected in %d steps: %v",
								e, topo.Edges[e], steps, counts)
						}
					}
					if err := s.checkInvariants(); err != nil {
						t.Fatalf("invariants violated after run: %v", err)
					}
				})
			}
		}
	}
}

// TestStarvationSchedulerHonoursBound checks the max-delay adversary's
// fairness guarantee quantitatively: no fault-free selection gap ever
// exceeds bound+|E|, and gaps close to the bound actually occur (the
// scheduler really starves).
func TestStarvationSchedulerHonoursBound(t *testing.T) {
	p := restless(t)
	topo, err := RingTopology(8)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 40
	s, err := newGraphScheduler(p, topo, NewRand(5), TopologySpec{Policy: PolicyStarvation})
	if err != nil {
		t.Fatal(err)
	}
	s.bound = bound
	lastSel := make([]int64, len(topo.Edges))
	var stepNo, maxGap int64
	s.onSelect = func(e int) {
		if gap := stepNo - lastSel[e]; gap > maxGap {
			maxGap = gap
		}
		lastSel[e] = stepNo
	}
	c, err := p.InitialConfig(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		stepNo++
		s.Step(c)
	}
	limit := int64(bound + len(topo.Edges))
	if maxGap > limit {
		t.Fatalf("observed starvation gap %d exceeds the fairness limit %d", maxGap, limit)
	}
	if maxGap < bound {
		t.Fatalf("max gap %d never reached the bound %d: this adversary is not starving anyone", maxGap, bound)
	}
}

// topologyTrajectoryGolden is the SHA-256 TestTopologyTrajectoryGolden
// computes. A change that moves any topology run by one draw changes it; a
// change meant to keep the topology schedulers' trajectories must leave it
// alone.
const topologyTrajectoryGolden = "7b226088a77ddc1350e10ae827e310312d93f5e2dbb9929cff85a18a05d63d01"

// TestTopologyTrajectoryGolden pins every edge-selection policy's
// trajectories bit for bit. For each policy on the clique, ring, grid and
// power-law graphs, fault-free and under crash/revive/join churn with joins
// into a non-zero state, it runs 5,000 steps of majority from (7, 5) at seed
// 11 and hashes each Step's result with the configuration key, then the
// final Quiescent verdict.
func TestTopologyTrajectoryGolden(t *testing.T) {
	p := majorityForEquiv(t)
	h := sha256.New()
	for _, kind := range []string{TopoClique, TopoRing, TopoGrid, TopoPowerLaw} {
		for _, policy := range conformancePolicies {
			for _, faulty := range []bool{false, true} {
				spec := TopologySpec{Kind: kind, Policy: policy}
				if faulty {
					spec.Crash, spec.Revive, spec.Join = 0.01, 0.05, 0.002
					spec.JoinState = p.StateIndex("Y")
				}
				c, err := p.InitialConfig(7, 5)
				if err != nil {
					t.Fatal(err)
				}
				s, err := spec.NewScheduler(p, NewRand(11), c.Size())
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s/%s/%t\n", kind, policy, faulty)
				for i := 0; i < 5000; i++ {
					fmt.Fprintf(h, "%t %x\n", s.Step(c), c.Key())
				}
				fmt.Fprintf(h, "quiescent %t\n", s.Quiescent())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != topologyTrajectoryGolden {
		t.Fatalf("topology trajectory hash %s, want %s", got, topologyTrajectoryGolden)
	}
}

// TestTraceReproducibility pins that a scheduler's entire decision trace —
// edge selections, fault injections, and the resulting configuration — is a
// pure function of the seed, for every policy, with and without faults.
func TestTraceReproducibility(t *testing.T) {
	p := restless(t)
	topo, err := GridTopology(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	faultsCases := map[string]TopologySpec{
		"fault-free": {},
		"faulty":     {Crash: 0.05, Revive: 0.3, Join: 0.02},
	}
	run := func(spec TopologySpec, seed int64) (trace []int, key string, agents int) {
		s, err := newGraphScheduler(p, topo, NewRand(seed), spec)
		if err != nil {
			t.Fatal(err)
		}
		s.onSelect = func(e int) { trace = append(trace, e) }
		c, err := p.InitialConfig(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			s.Step(c)
		}
		return trace, c.Key(), s.NumAgents()
	}
	for _, policy := range conformancePolicies {
		for fName, spec := range faultsCases {
			t.Run(policy+"/"+fName, func(t *testing.T) {
				spec.Policy = policy
				tr1, key1, n1 := run(spec, 101)
				tr2, key2, n2 := run(spec, 101)
				if len(tr1) != len(tr2) {
					t.Fatalf("same seed, different trace lengths: %d vs %d", len(tr1), len(tr2))
				}
				for i := range tr1 {
					if tr1[i] != tr2[i] {
						t.Fatalf("same seed, traces diverge at step %d: edge %d vs %d", i, tr1[i], tr2[i])
					}
				}
				if key1 != key2 || n1 != n2 {
					t.Fatalf("same seed, different outcomes: %s/%d agents vs %s/%d agents",
						key1, n1, key2, n2)
				}
			})
		}
	}
	// Distinct seeds must explore distinct schedules (random policy).
	tr1, _, _ := run(TopologySpec{}, 101)
	tr3, _, _ := run(TopologySpec{}, 102)
	same := len(tr1) == len(tr3)
	if same {
		for i := range tr1 {
			if tr1[i] != tr3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 101 and 102 produced identical 2000-step traces")
	}
}

// TestQuiescentSeesAdjacency pins the topology-aware quiescence predicate:
// two reactive states held only by non-adjacent agents can never meet, so
// the scheduler is quiescent even though the multiset-level enabled-
// transition scan says otherwise.
func TestQuiescentSeesAdjacency(t *testing.T) {
	b := protocol.NewBuilder("handshake")
	b.Input("a", "b")
	b.Transition("a", "b", "c", "c")
	b.Accepting("c")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Two disjoint edges: agents 0,1 hold a; agents 2,3 hold b. The only
	// reactive pair (a,b) spans the components.
	topo, err := EdgeListTopology(4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := newGraphScheduler(p, topo, NewRand(1), TopologySpec{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.InitialConfig(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.EnabledTransitions(c)) == 0 {
		t.Fatal("multiset-level scan should still see the (a,b) transition")
	}
	s.Bind(c)
	if !s.Quiescent() {
		t.Fatal("non-adjacent reactive states reported as non-quiescent")
	}
	// A connecting edge makes the pair meetable again.
	topo2, err := EdgeListTopology(4, [][2]int{{0, 1}, {2, 3}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newGraphScheduler(p, topo2, NewRand(1), TopologySpec{})
	if err != nil {
		t.Fatal(err)
	}
	s2.Bind(c.Clone())
	if s2.Quiescent() {
		t.Fatal("adjacent reactive states reported as quiescent")
	}
}

// TestQuiescentAccountsForCrashesAndFaults pins the fault side of the
// quiescence contract: a crashed agent silences its edges permanently only
// when no revive is possible; any revive or join probability keeps the run
// non-quiescent.
func TestQuiescentAccountsForCrashesAndFaults(t *testing.T) {
	p := epidemic(t)
	topo, err := CliqueTopology(3)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(faults TopologySpec) *GraphScheduler {
		s, err := newGraphScheduler(p, topo, NewRand(2), faults)
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.InitialConfig(1, 2) // agent 0 = I, agents 1,2 = S
		if err != nil {
			t.Fatal(err)
		}
		s.Bind(c)
		if err := s.CrashAgent(0); err != nil {
			t.Fatal(err)
		}
		return s
	}

	// No revive possible: the I agent is gone for good, (S,S) is silent, so
	// the configuration truly can never change again.
	if s := mk(TopologySpec{}); !s.Quiescent() {
		t.Fatal("permanently crashed infection source should leave a quiescent run")
	}
	// Revivable: the crashed I could come back and infect everyone.
	if s := mk(TopologySpec{Revive: 0.1}); s.Quiescent() {
		t.Fatal("crashed-but-revivable agent reported as quiescent")
	}
	// Joins can always add a reactive agent.
	if s := mk(TopologySpec{Join: 0.1}); s.Quiescent() {
		t.Fatal("positive join rate reported as quiescent")
	}
	// Reviving the agent by hand restores reactivity.
	s := mk(TopologySpec{})
	if err := s.ReviveAgent(0); err != nil {
		t.Fatal(err)
	}
	if s.Quiescent() {
		t.Fatal("revived infection source reported as quiescent")
	}
}

// TestFaultHarnessAPIAndInvariants drives the deterministic fault API
// through crash/revive/join cycles, checking structural invariants and the
// error contract at every step.
func TestFaultHarnessAPIAndInvariants(t *testing.T) {
	p := restless(t)
	topo, err := GridTopology(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newGraphScheduler(p, topo, NewRand(9), TopologySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CrashAgent(0); err == nil {
		t.Fatal("CrashAgent before Bind accepted")
	}
	c, err := p.InitialConfig(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Bind(c)
	check := func() {
		t.Helper()
		if err := s.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	check()
	for _, id := range []int{0, 3, 5} {
		if err := s.CrashAgent(id); err != nil {
			t.Fatal(err)
		}
		check()
	}
	if s.AliveAgents() != 5 {
		t.Fatalf("AliveAgents = %d, want 5", s.AliveAgents())
	}
	if err := s.CrashAgent(3); err == nil {
		t.Fatal("double crash accepted")
	}
	if err := s.ReviveAgent(1); err == nil {
		t.Fatal("reviving an alive agent accepted")
	}
	if err := s.ReviveAgent(3); err != nil {
		t.Fatal(err)
	}
	check()
	id, err := s.JoinAgent(p.StateIndex("v"))
	if err != nil {
		t.Fatal(err)
	}
	check()
	if st, err := s.AgentState(id); err != nil || st != p.StateIndex("v") {
		t.Fatalf("joined agent state = %d, %v; want %d", st, err, p.StateIndex("v"))
	}
	if c.Size() != 9 {
		t.Fatalf("join did not grow the configuration: size %d, want 9", c.Size())
	}
	if _, err := s.JoinAgent(99); err == nil {
		t.Fatal("join with out-of-range state accepted")
	}
	for i := 0; i < 500; i++ {
		s.Step(c)
	}
	check()
	// The crash floor: crash everyone down to 2 alive agents, then refuse.
	for s.AliveAgents() > 2 {
		crashed := false
		for id := 0; id < s.NumAgents(); id++ {
			if st, _ := s.AgentState(id); st >= 0 && s.alive[id] {
				if err := s.CrashAgent(id); err == nil {
					crashed = true
					break
				}
			}
		}
		if !crashed {
			break
		}
	}
	if s.AliveAgents() != 2 {
		t.Fatalf("could not crash down to the floor: %d alive", s.AliveAgents())
	}
	check()
}

// TestAttachResetsJoinedState pins that re-binding a scheduler to a fresh
// configuration rebuilds the pristine topology: agents joined and edges
// added in an earlier run never leak into the next.
func TestAttachResetsJoinedState(t *testing.T) {
	p := restless(t)
	topo, err := RingTopology(6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newGraphScheduler(p, topo, NewRand(13), TopologySpec{Join: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := p.InitialConfig(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		s.Step(c1)
	}
	if s.NumAgents() <= 6 {
		t.Fatalf("join rate 0.2 added no agents in 200 steps (%d tracked)", s.NumAgents())
	}
	c2, err := p.InitialConfig(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(c2)
	if got := s.NumAgents(); got < 6 || got > 7 {
		t.Fatalf("re-bind kept joined agents: %d tracked, want 6 (+ ≤1 new join)", got)
	}
	if err := s.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGraphSchedulerPopulationMismatchPanics pins the attach contract: a
// topology over n agents refuses to schedule a population of a different
// size.
func TestGraphSchedulerPopulationMismatchPanics(t *testing.T) {
	p := restless(t)
	topo, err := RingTopology(6)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newGraphScheduler(p, topo, NewRand(1), TopologySpec{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.InitialConfig(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling a mismatched population did not panic")
		}
	}()
	s.Step(c)
}

// TestTopologySchedulerConstruction pins TopologySpec.NewScheduler: every
// policy builds a GraphScheduler that carries it, and construction rejects
// an unknown policy, out-of-range fault rates and a JoinState beyond the
// protocol's states.
func TestTopologySchedulerConstruction(t *testing.T) {
	p := restless(t)
	rng := NewRand(1)
	build := func(spec TopologySpec) (*GraphScheduler, error) {
		spec.Kind = TopoRing
		return spec.NewScheduler(p, rng, 4)
	}
	for _, policy := range append([]string{""}, conformancePolicies...) {
		s, err := build(TopologySpec{Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		if s.spec.Policy != policy {
			t.Fatalf("policy %q built a scheduler with policy %q", policy, s.spec.Policy)
		}
	}
	for name, spec := range map[string]TopologySpec{
		"unknown policy":         {Policy: "chaotic"},
		"negative crash rate":    {Crash: -0.1},
		"join rate 2":            {Join: 2},
		"NaN revive rate":        {Revive: math.NaN()},
		"negative JoinState":     {JoinState: -1},
		"out-of-range JoinState": {JoinState: 99},
	} {
		if _, err := build(spec); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestAdversaryDelaysMajority gives the worst-case chooser its intended
// victim: on a clique, starting from a mixed majority population, the
// adversary must hold the population in a mixed output for far longer than
// the uniform scheduler does, while the ε-mixing still lets the run converge
// eventually under fairness.
func TestAdversaryDelaysMajority(t *testing.T) {
	p := majorityForEquiv(t)
	topo, err := CliqueTopology(12)
	if err != nil {
		t.Fatal(err)
	}
	c0, err := p.InitialConfig(7, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Count effective steps: the adversary fires a non-silent transition on
	// nearly every decision while the uniform scheduler mostly draws nulls,
	// so raw decision counts are not comparable across the two.
	stepsToConsensus := func(s Scheduler) int {
		c := c0.Clone()
		eff := 0
		for i := 0; i < 200000; i++ {
			if s.Step(c) {
				eff++
			}
			if p.OutputOf(c) == protocol.OutputTrue {
				return eff
			}
		}
		return -1
	}
	uniform := 0
	const uniformTrials = 5
	for seed := int64(0); seed < uniformTrials; seed++ {
		s, err := newGraphScheduler(p, topo, NewRand(seed), TopologySpec{})
		if err != nil {
			t.Fatal(err)
		}
		n := stepsToConsensus(s)
		if n < 0 {
			t.Fatal("uniform scheduler never converged")
		}
		uniform += n
	}
	uniform /= uniformTrials
	adv, err := newGraphScheduler(p, topo, NewRand(23), TopologySpec{Policy: PolicyAdversary})
	if err != nil {
		t.Fatal(err)
	}
	adversarial := stepsToConsensus(adv)
	if adversarial < 0 {
		t.Fatal("adversary broke fairness: no convergence within the step budget")
	}
	if adversarial < 3*uniform {
		t.Fatalf("adversary barely hurt: %d steps vs uniform avg %d", adversarial, uniform)
	}
}
