package sched

// The graph-restricted scheduler: the uniform random-pair model of §1 with
// the complete interaction graph replaced by an arbitrary topology. Agents
// are individual vertices with fixed neighbourhoods; each scheduling
// decision (after optional fault injection) picks an *edge* among the alive
// edges by its edge-selection policy, orients it uniformly, and fires a
// uniformly chosen candidate transition. Under the random policy on the
// clique this law coincides exactly with the uniform random-pair law
// (certified by the conformance suite's recorded-RNG enumeration).
//
// Edge sampling is Fenwick-indexed over 0/1 edge weights (1 = both endpoints
// alive), so crashes and revives are O(deg·log E) and draws are O(log E).

import (
	"fmt"
	"slices"

	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// Policy names for the edge-selection policies of GraphScheduler.
const (
	// PolicyRandom draws a uniformly random alive edge each step — the
	// topology-restricted analogue of the paper's uniform scheduler.
	PolicyRandom = "random"
	// PolicyRoundRobin sweeps the alive edges in a fixed cyclic order:
	// deterministic edge choice, maximally even edge-firing frequencies.
	PolicyRoundRobin = "roundrobin"
	// PolicyStarvation is the max-delay adversary: it re-serves the most
	// recently refreshed edge until some edge's age reaches the starvation
	// bound, then serves the oldest — the most uneven schedule that still
	// honours a bounded-delay fairness guarantee.
	PolicyStarvation = "starvation"
	// PolicyAdversary is the seed-driven worst-case chooser: with
	// probability ε it mixes uniformly (which keeps runs fair a.s.);
	// otherwise it fires, among all enabled options, one keeping the
	// population as close to a mixed output as possible.
	PolicyAdversary = "adversary"
)

// Fixed parameters of fault injection and of the adversarial policy.
const (
	// minAlive is the crash floor: rate-driven crashes never take the alive
	// population below it and CrashAgent refuses to (a scheduler needs a
	// pair).
	minAlive = 2
	// joinAttach is the number of distinct alive agents a joining agent is
	// wired to, clamped to the alive population.
	joinAttach = 2
	// advEpsilon is PolicyAdversary's uniform-mixing probability: every
	// enabled option recurs with positive probability, so runs stay fair
	// a.s.
	advEpsilon = 0.125
)

// GraphScheduler is the graph-restricted scheduler: per-agent states
// mirroring the attached multiset, alive/crashed bookkeeping, the
// Fenwick-indexed edge sampler and fault injection at the spec's rates,
// under the edge-selection policy the spec names. Under PolicyRandom each
// decision draws a uniformly random alive edge, orients it uniformly and
// fires a uniform candidate transition; on the clique this is exactly the
// uniform random-pair law.
type GraphScheduler struct {
	p     *protocol.Protocol
	rng   source
	pairs *protocol.Stepper
	spec  TopologySpec // the policy and fault rates

	// base is the pristine topology; attach rebuilds all mutable state from
	// it, so joined agents and edges never leak across runs.
	base *Topology

	ends     [][2]int // edge endpoints (smaller first), grows on join
	incident [][]int  // agent → incident edge indices
	weights  []int64  // per-edge weight: 1 iff both endpoints alive
	lastSel  []int64  // per-edge step index of the last selection
	fen      *fenwick
	aliveE   int64 // number of weight-1 edges

	states     []int // per-agent protocol state
	alive      []bool
	aliveIDs   []int // alive agent ids (swap-removal order)
	alivePos   []int // agent id → index in aliveIDs, −1 when crashed
	crashedIDs []int
	crashedPos []int
	accCount   int64 // agents in accepting states (adversary's objective)

	attached *multiset.Multiset
	step     int64 // scheduling decisions since attach

	// Per-policy state: the round-robin cursor (attach resets it), the
	// starvation bound (2·|E|+64 over the base edges) and the adversary's
	// option scratch.
	cursor int
	bound  int64
	opts   []advOption

	// onFire / onSelect observe fired transitions and edge selections; the
	// conformance and fuzz suites use them.
	onFire   func(protocol.Transition)
	onSelect func(edge int)
	met      *obs.SchedMetrics
}

var _ Scheduler = (*GraphScheduler)(nil)

// newGraphScheduler builds the scheduler over topo under spec's policy and
// fault rates; spec's graph fields are not read.
func newGraphScheduler(p *protocol.Protocol, topo *Topology, rng source, spec TopologySpec) (*GraphScheduler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.JoinState >= p.NumStates() {
		return nil, fmt.Errorf("sched: JoinState %d out of range for protocol %q (%d states)",
			spec.JoinState, p.Name, p.NumStates())
	}
	if topo.N < 2 || len(topo.Edges) == 0 {
		return nil, fmt.Errorf("sched: topology needs ≥ 2 agents and ≥ 1 edge (got %d, %d)",
			topo.N, len(topo.Edges))
	}
	return &GraphScheduler{
		p: p, rng: rng, pairs: protocol.NewStepper(p), spec: spec, base: topo,
		bound: 2*int64(len(topo.Edges)) + 64,
		met:   obs.Sched(),
	}, nil
}

// Step implements Scheduler: one decision injects faults (crash, revive,
// join, in that order of draws) and then lets the spec's policy pick what
// fires.
func (g *GraphScheduler) Step(c *multiset.Multiset) bool {
	g.attach(c)
	g.step++
	if g.met != nil {
		g.met.Steps.Inc()
		g.met.GraphSteps.Inc()
		g.met.TopoInteractions.Add(topoKindIndex(g.base.Kind), 1)
	}
	g.injectFaults()
	if g.aliveE == 0 {
		return false
	}
	var e int
	switch g.spec.Policy {
	case PolicyRoundRobin:
		e = g.nextInSweep()
	case PolicyStarvation:
		e = g.maxDelayEdge()
	case PolicyAdversary:
		if g.rng.Float64() >= advEpsilon {
			return g.worstCaseStep()
		}
		e = g.sampleEdge()
	default:
		e = g.sampleEdge()
	}
	return g.fireEdge(e)
}

// attach binds the scheduler to configuration c, rebuilding every piece of
// mutable state from the pristine topology. The population must match the
// topology size; individual agents are assigned states in state order.
func (g *GraphScheduler) attach(c *multiset.Multiset) {
	if g.attached == c {
		return
	}
	if c.Size() != int64(g.base.N) {
		panic(fmt.Sprintf("sched: topology over %d agents cannot schedule a population of %d",
			g.base.N, c.Size()))
	}
	n := g.base.N
	g.states = g.states[:0]
	for st := 0; st < c.Len(); st++ {
		for k := int64(0); k < c.Count(st); k++ {
			g.states = append(g.states, st)
		}
	}
	g.accCount = 0
	for _, st := range g.states {
		if g.p.Accepting[st] {
			g.accCount++
		}
	}
	g.alive = resizeBool(g.alive, n)
	g.aliveIDs = g.aliveIDs[:0]
	g.alivePos = resizeInt(g.alivePos, n)
	g.crashedIDs = g.crashedIDs[:0]
	g.crashedPos = resizeInt(g.crashedPos, n)
	for i := 0; i < n; i++ {
		g.alive[i] = true
		g.alivePos[i] = i
		g.aliveIDs = append(g.aliveIDs, i)
		g.crashedPos[i] = -1
	}
	g.ends = append(g.ends[:0], g.base.Edges...)
	g.incident = g.incident[:0]
	for i := 0; i < n; i++ {
		g.incident = append(g.incident, nil)
	}
	g.weights = g.weights[:0]
	g.lastSel = g.lastSel[:0]
	for e, ab := range g.ends {
		g.incident[ab[0]] = append(g.incident[ab[0]], e)
		g.incident[ab[1]] = append(g.incident[ab[1]], e)
		g.weights = append(g.weights, 1)
		g.lastSel = append(g.lastSel, 0)
	}
	g.fen = newFenwick(g.weights)
	g.aliveE = int64(len(g.ends))
	g.step = 0
	g.cursor = 0
	g.attached = c
	if g.met != nil {
		g.met.FenwickRebuilds.Inc()
	}
}

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// injectFaults draws the decision's crash, revive and join events at the
// spec's rates; a zero rate draws nothing.
func (g *GraphScheduler) injectFaults() {
	f := &g.spec
	if f.Crash > 0 && g.rng.Float64() < f.Crash && len(g.aliveIDs) > minAlive {
		g.crash(g.aliveIDs[g.rng.Intn(len(g.aliveIDs))])
	}
	if f.Revive > 0 && len(g.crashedIDs) > 0 && g.rng.Float64() < f.Revive {
		g.revive(g.crashedIDs[g.rng.Intn(len(g.crashedIDs))])
	}
	if f.Join > 0 && g.rng.Float64() < f.Join {
		g.join(f.JoinState)
	}
}

// crash takes agent a out of the interaction graph; its state stays in the
// configuration.
func (g *GraphScheduler) crash(a int) {
	g.alive[a] = false
	i, last := g.alivePos[a], len(g.aliveIDs)-1
	moved := g.aliveIDs[last]
	g.aliveIDs[i] = moved
	g.alivePos[moved] = i
	g.aliveIDs = g.aliveIDs[:last]
	g.alivePos[a] = -1
	g.crashedPos[a] = len(g.crashedIDs)
	g.crashedIDs = append(g.crashedIDs, a)
	for _, e := range g.incident[a] {
		if g.weights[e] == 1 {
			g.weights[e] = 0
			g.fen.add(e, -1)
			g.aliveE--
		}
	}
	if g.met != nil {
		g.met.Crashes.Inc()
	}
}

// revive brings a crashed agent back in the state it crashed with.
func (g *GraphScheduler) revive(a int) {
	g.alive[a] = true
	i, last := g.crashedPos[a], len(g.crashedIDs)-1
	moved := g.crashedIDs[last]
	g.crashedIDs[i] = moved
	g.crashedPos[moved] = i
	g.crashedIDs = g.crashedIDs[:last]
	g.crashedPos[a] = -1
	g.alivePos[a] = len(g.aliveIDs)
	g.aliveIDs = append(g.aliveIDs, a)
	for _, e := range g.incident[a] {
		other := g.ends[e][0] + g.ends[e][1] - a
		if g.alive[other] && g.weights[e] == 0 {
			g.weights[e] = 1
			g.fen.add(e, 1)
			g.aliveE++
		}
	}
	if g.met != nil {
		g.met.Revives.Inc()
	}
}

// join adds a fresh agent in the given state, wired to joinAttach distinct
// alive agents, and grows the attached configuration. The Fenwick index is
// rebuilt (joins are rare; rebuilds are O(E)).
func (g *GraphScheduler) join(state int) int {
	id := len(g.states)
	g.states = append(g.states, state)
	g.alive = append(g.alive, true)
	g.alivePos = append(g.alivePos, len(g.aliveIDs))
	g.aliveIDs = append(g.aliveIDs, id)
	g.crashedPos = append(g.crashedPos, -1)
	g.incident = append(g.incident, nil)
	g.attached.Add(state, 1)
	if g.p.Accepting[state] {
		g.accCount++
	}
	k := min(joinAttach, len(g.aliveIDs)-1)
	var targets []int
	for len(targets) < k {
		t := g.aliveIDs[g.rng.Intn(len(g.aliveIDs))]
		if t == id || slices.Contains(targets, t) {
			continue
		}
		targets = append(targets, t)
	}
	for _, t := range targets {
		a, b := t, id
		if a > b {
			a, b = b, a
		}
		e := len(g.ends)
		g.ends = append(g.ends, [2]int{a, b})
		g.weights = append(g.weights, 1)
		g.lastSel = append(g.lastSel, g.step)
		g.incident[t] = append(g.incident[t], e)
		g.incident[id] = append(g.incident[id], e)
		g.aliveE++
	}
	g.fen = newFenwick(g.weights)
	if g.met != nil {
		g.met.Joins.Inc()
		g.met.FenwickRebuilds.Inc()
	}
	return id
}

// sampleEdge draws a uniformly random alive edge. Callers guard aliveE > 0.
func (g *GraphScheduler) sampleEdge() int {
	return g.fen.find(g.rng.Int63n(g.aliveE))
}

// selectEdge records edge e as this step's selection (starvation-gap
// telemetry and the per-edge ages the starvation policy reads).
func (g *GraphScheduler) selectEdge(e int) {
	if g.met != nil {
		g.met.StarvationGap.Observe(g.step - g.lastSel[e])
	}
	g.lastSel[e] = g.step
	if g.onSelect != nil {
		g.onSelect(e)
	}
}

// fireEdge completes a scheduling decision on edge e under the uniform law:
// uniform orientation, then a uniform candidate transition for the oriented
// state pair. Returns whether the configuration changed.
func (g *GraphScheduler) fireEdge(e int) bool {
	g.selectEdge(e)
	a, b := g.ends[e][0], g.ends[e][1]
	if g.rng.Intn(2) == 1 {
		a, b = b, a
	}
	cands := g.pairs.Candidates(g.states[a], g.states[b])
	if len(cands) == 0 {
		return false
	}
	t := cands[g.rng.Intn(len(cands))]
	if t.IsSilent() {
		return false
	}
	g.apply(a, b, t)
	return true
}

// apply fires transition t with initiator a and responder b.
func (g *GraphScheduler) apply(a, b int, t protocol.Transition) {
	g.p.Apply(g.attached, t)
	acc := g.p.Accepting
	g.accCount += accDelta(acc[t.Q2]) + accDelta(acc[t.R2]) - accDelta(acc[t.Q]) - accDelta(acc[t.R])
	g.states[a] = int(t.Q2)
	g.states[b] = int(t.R2)
	if g.met != nil {
		g.met.Effective.Inc()
	}
	if g.onFire != nil {
		g.onFire(t)
	}
}

func accDelta(accepting bool) int64 {
	if accepting {
		return 1
	}
	return 0
}

// Quiescent reports whether the attached configuration can never change
// again under this scheduler: no alive edge joins a reactive state pair, no
// crashed agent could revive into one, and no join can add agents. The
// simulate runner prefers this over the multiset-level enabled-transition
// scan, which cannot see adjacency (two reactive states held only by
// non-adjacent agents will never meet) or crashed-but-revivable agents.
func (g *GraphScheduler) Quiescent() bool {
	if g.attached == nil || g.spec.Join > 0 {
		return false
	}
	revivable := g.spec.Revive > 0 && len(g.crashedIDs) > 0
	for _, ab := range g.ends {
		a, b := ab[0], ab[1]
		if !revivable && (!g.alive[a] || !g.alive[b]) {
			continue
		}
		qa, qb := g.states[a], g.states[b]
		if len(g.pairs.Fire(qa, qb)) > 0 || len(g.pairs.Fire(qb, qa)) > 0 {
			return false
		}
	}
	return true
}

// Bind attaches the scheduler to c before the first Step, so tests and
// harnesses can script faults against a known agent layout (agents are
// numbered 0..m−1 in state order).
func (g *GraphScheduler) Bind(c *multiset.Multiset) {
	g.attach(c)
}

// NumAgents returns the number of agents tracked (alive + crashed), or 0
// before Bind/Step.
func (g *GraphScheduler) NumAgents() int { return len(g.states) }

// AliveAgents returns the number of alive agents.
func (g *GraphScheduler) AliveAgents() int { return len(g.aliveIDs) }

// AgentState returns agent id's current protocol state.
func (g *GraphScheduler) AgentState(id int) (int, error) {
	if id < 0 || id >= len(g.states) {
		return 0, fmt.Errorf("sched: agent %d out of range (%d agents)", id, len(g.states))
	}
	return g.states[id], nil
}

// CrashAgent deterministically crashes agent id (harness counterpart of the
// rate-driven injection). The scheduler must be bound first.
func (g *GraphScheduler) CrashAgent(id int) error {
	switch {
	case g.attached == nil:
		return fmt.Errorf("sched: CrashAgent before Bind")
	case id < 0 || id >= len(g.states):
		return fmt.Errorf("sched: agent %d out of range (%d agents)", id, len(g.states))
	case !g.alive[id]:
		return fmt.Errorf("sched: agent %d is already crashed", id)
	case len(g.aliveIDs) <= minAlive:
		return fmt.Errorf("sched: refusing to crash below %d alive agents", minAlive)
	}
	g.crash(id)
	return nil
}

// ReviveAgent deterministically revives a crashed agent.
func (g *GraphScheduler) ReviveAgent(id int) error {
	switch {
	case g.attached == nil:
		return fmt.Errorf("sched: ReviveAgent before Bind")
	case id < 0 || id >= len(g.states):
		return fmt.Errorf("sched: agent %d out of range (%d agents)", id, len(g.states))
	case g.alive[id]:
		return fmt.Errorf("sched: agent %d is not crashed", id)
	}
	g.revive(id)
	return nil
}

// JoinAgent deterministically joins a fresh agent in the given state and
// returns its id.
func (g *GraphScheduler) JoinAgent(state int) (int, error) {
	switch {
	case g.attached == nil:
		return 0, fmt.Errorf("sched: JoinAgent before Bind")
	case state < 0 || state >= g.p.NumStates():
		return 0, fmt.Errorf("sched: state %d out of range for protocol %q", state, g.p.Name)
	}
	return g.join(state), nil
}

// checkInvariants verifies the structural invariants the conformance and
// fuzz suites rely on: edge weights consistent with liveness, the Fenwick
// total and aliveE in agreement, and the per-agent states summing to the
// attached multiset.
func (g *GraphScheduler) checkInvariants() error {
	if g.attached == nil {
		return nil
	}
	var total int64
	for e, ab := range g.ends {
		want := int64(0)
		if g.alive[ab[0]] && g.alive[ab[1]] {
			want = 1
		}
		if g.weights[e] != want {
			return fmt.Errorf("edge %d (%d,%d): weight %d, want %d", e, ab[0], ab[1], g.weights[e], want)
		}
		total += g.weights[e]
	}
	if total != g.aliveE {
		return fmt.Errorf("aliveE %d, recomputed %d", g.aliveE, total)
	}
	counts := make([]int64, g.attached.Len())
	for _, st := range g.states {
		counts[st]++
	}
	for st := range counts {
		if counts[st] != g.attached.Count(st) {
			return fmt.Errorf("state %d: %d agents tracked, multiset holds %d",
				st, counts[st], g.attached.Count(st))
		}
	}
	if len(g.aliveIDs)+len(g.crashedIDs) != len(g.states) {
		return fmt.Errorf("alive %d + crashed %d ≠ agents %d",
			len(g.aliveIDs), len(g.crashedIDs), len(g.states))
	}
	return nil
}
