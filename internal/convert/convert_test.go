package convert

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// figure4Machine builds the sample machine of Figure 4 (plus a trailing
// spin so instruction 4 can complete):
//
//	1: x ↦ y
//	2: detect x > 0
//	3: IP := (1 if CF else 4)
//	4: OF := ¬CF
//	5: IP := 5
func figure4Machine(t *testing.T) *popmachine.Machine {
	t.Helper()
	b := popmachine.NewBuilder("figure4", []string{"x", "y"})
	m := b.Machine()
	b.Emit(popmachine.MoveInstr{X: 0, Y: 1})
	b.Emit(popmachine.DetectInstr{X: 0})
	b.Emit(popmachine.CondJump(m, 1, 4))
	b.Emit(popmachine.AssignInstr{
		X: m.OF, Y: m.CF,
		F: map[int]int{popmachine.ValFalse: popmachine.ValTrue, popmachine.ValTrue: popmachine.ValFalse},
	})
	b.Emit(popmachine.Jump(m, 5))
	machine, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return machine
}

// hasTransition reports whether the protocol contains the named transition.
func hasTransition(p *protocol.Protocol, q, r, q2, r2 string) bool {
	qi, ri, q2i, r2i := p.StateIndex(q), p.StateIndex(r), p.StateIndex(q2), p.StateIndex(r2)
	if qi < 0 || ri < 0 || q2i < 0 || r2i < 0 {
		return false
	}
	for _, t := range p.Transitions {
		if int(t.Q) == qi && int(t.R) == ri && int(t.Q2) == q2i && int(t.R2) == r2i {
			return true
		}
	}
	return false
}

func TestFigure4MoveTransitions(t *testing.T) {
	m := figure4Machine(t)
	res, err := Convert(m)
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	// Figure 4, line 1 (x ↦ y): the IP agent recruits V_x...
	if !hasTransition(core, "IP=1·none", "V_x=0·none", "IP=1·wait", "V_x=0·emit") {
		t.Fatal("missing IP/V_x recruitment transition")
	}
	// ...V_x emits one agent from register x into the fixed register z=x...
	if !hasTransition(core, "V_x=0·emit", "x", "V_x=0·done", "x") {
		t.Fatal("missing emit transition")
	}
	// ...the IP agent acknowledges and turns to V_y...
	if !hasTransition(core, "IP=1·wait", "V_x=0·done", "IP=1·half", "V_x=0·none") {
		t.Fatal("missing half-way acknowledgement")
	}
	if !hasTransition(core, "IP=1·half", "V_y=1·none", "IP=1·wait", "V_y=1·take") {
		t.Fatal("missing V_y recruitment")
	}
	// ...V_y takes an agent from z into register y...
	if !hasTransition(core, "V_y=1·take", "x", "V_y=1·done", "y") {
		t.Fatal("missing take transition")
	}
	// ...and the instruction pointer advances.
	if !hasTransition(core, "IP=1·wait", "V_y=1·done", "IP=2·none", "V_y=1·none") {
		t.Fatal("missing IP advance")
	}
}

func TestFigure4DetectTransitions(t *testing.T) {
	m := figure4Machine(t)
	res, err := Convert(m)
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	if !hasTransition(core, "IP=2·none", "V_x=0·none", "IP=2·wait", "V_x=0·test") {
		t.Fatal("missing test recruitment")
	}
	// Detection: meeting a register-x agent certifies nonzero.
	if !hasTransition(core, "V_x=0·test", "x", "V_x=0·true", "x") {
		t.Fatal("missing positive detection")
	}
	// Meeting anything else yields false — e.g. a register-y agent.
	if !hasTransition(core, "V_x=0·test", "y", "V_x=0·false", "y") {
		t.Fatal("missing negative detection")
	}
	// The outcome is stored into CF.
	if !hasTransition(core, "V_x=0·true", "CF=0·none", "V_x=0·done", "CF=1·none") {
		t.Fatal("missing CF store (true)")
	}
	if !hasTransition(core, "V_x=0·false", "CF=1·none", "V_x=0·done", "CF=0·none") {
		t.Fatal("missing CF store (false)")
	}
}

func TestFigure4PointerTransitions(t *testing.T) {
	m := figure4Machine(t)
	res, err := Convert(m)
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	// Instruction 3 (IP := f(CF)) is the X = IP special case: a single
	// exchange with the CF agent.
	if !hasTransition(core, "IP=3·none", "CF=1·none", "IP=1·none", "CF=1·none") {
		t.Fatal("missing conditional jump (CF true)")
	}
	if !hasTransition(core, "IP=3·none", "CF=0·none", "IP=4·none", "CF=0·none") {
		t.Fatal("missing conditional jump (CF false)")
	}
	// Instruction 4 (OF := ¬CF) is the ordinary case via OF's map state.
	if !hasTransition(core, "IP=4·none", "OF=0·none", "IP=4·wait", "OF·map4") {
		t.Fatal("missing OF map recruitment")
	}
	if !hasTransition(core, "OF·map4", "CF=1·none", "OF=0·done", "CF=1·none") {
		t.Fatal("missing OF := ¬CF application (CF true → OF false)")
	}
	if !hasTransition(core, "OF·map4", "CF=0·none", "OF=1·done", "CF=0·none") {
		t.Fatal("missing OF := ¬CF application (CF false → OF true)")
	}
	if !hasTransition(core, "IP=4·wait", "OF=1·done", "IP=5·none", "OF=1·none") {
		t.Fatal("missing IP advance after assignment")
	}
}

func TestElectTransitions(t *testing.T) {
	m := figure4Machine(t)
	res, err := Convert(m)
	if err != nil {
		t.Fatal(err)
	}
	core := res.Core
	// Two agents of the same pointer family collapse into an initialised
	// pair along the elect order (OF is the first pointer, CF second).
	if !hasTransition(core, "OF=1·done", "OF=0·none", "OF=0·none", "CF=0·none") {
		t.Fatal("missing OF-family elect transition")
	}
	// IP duplicates re-seed the chain and release a register agent.
	if !hasTransition(core, "IP=2·wait", "IP=5·none", "OF=0·none", "x") {
		t.Fatal("missing IP-family elect transition")
	}
}

func TestStateAccountingProposition16(t *testing.T) {
	for _, build := range []func(*testing.T) *popmachine.Machine{
		figure4Machine,
		func(t *testing.T) *popmachine.Machine { return compiledFigure1(t) },
	} {
		m := build(t)
		res, err := Convert(m)
		if err != nil {
			t.Fatal(err)
		}
		sumDomains := 0
		for _, p := range m.Pointers {
			sumDomains += len(p.Domain)
		}
		bound := len(m.Registers) + 7*sumDomains + m.NumInstrs()
		if res.CoreStates > bound {
			t.Fatalf("%s: |Q*| = %d exceeds |Q| + 7Σ|ℱ_X| + L = %d",
				m.Name, res.CoreStates, bound)
		}
		if got := res.Protocol.NumStates(); got != 2*res.CoreStates {
			t.Fatalf("%s: |Q'| = %d, want 2·|Q*| = %d", m.Name, got, 2*res.CoreStates)
		}
	}
}

func compiledFigure1(t *testing.T) *popmachine.Machine {
	t.Helper()
	m, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// geOneProgram decides x ≥ 1 with a single register:
//
//	Main: OF := false; while ¬(detect x > 0) {}; OF := true; while true {}
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

// geTwoProgram decides x ≥ 2 with two registers (a miniature of Figure 1):
//
//	Main:  OF := false
//	       while ¬Test2 { Clean }
//	       OF := true
//	       while true {}
//	Test2: (detect x; x ↦ y) twice, else return false; return true
//	Clean: swap x, y; while detect y > 0 { y ↦ x }
func geTwoProgram() *popprog.Program {
	test2 := &popprog.Procedure{
		Name:    "Test2",
		Returns: true,
		Body: append(popprog.Repeat(2, func(int) []popprog.Stmt {
			return []popprog.Stmt{popprog.If{
				Cond: popprog.Detect{Reg: 0},
				Then: []popprog.Stmt{popprog.Move{From: 0, To: 1}},
				Else: []popprog.Stmt{popprog.Return{HasValue: true, Value: false}},
			}}
		}), popprog.Return{HasValue: true, Value: true}),
	}
	clean := &popprog.Procedure{
		Name: "Clean",
		Body: []popprog.Stmt{
			popprog.Swap{A: 0, B: 1},
			popprog.While{Cond: popprog.Detect{Reg: 1}, Body: []popprog.Stmt{popprog.Move{From: 1, To: 0}}},
		},
	}
	main := &popprog.Procedure{
		Name: "Main",
		Body: []popprog.Stmt{
			popprog.SetOF{Value: false},
			popprog.While{
				Cond: popprog.Not{C: popprog.CallCond{Proc: 1}},
				Body: []popprog.Stmt{popprog.Call{Proc: 2}},
			},
			popprog.SetOF{Value: true},
			popprog.While{Cond: popprog.True{}},
		},
	}
	return &popprog.Program{
		Name:       "ge2",
		Registers:  []string{"x", "y"},
		Procedures: []*popprog.Procedure{main, test2, clean},
	}
}

func convertProgram(t *testing.T, prog *popprog.Program) *Result {
	t.Helper()
	m, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Convert(m)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTheorem5ExactGeOne model-checks the fully converted ge1 protocol:
// φ'(m) ⟺ m ≥ |F| ∧ (m − |F|) ≥ 1, exactly as Theorem 5 states.
func TestTheorem5ExactGeOne(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	res := convertProgram(t, geOneProgram())
	p := res.Protocol
	f := int64(res.NumPointers)
	for _, extra := range []int64{0, 1, 2} {
		m := f + extra
		want := extra >= 1
		c, err := p.InitialConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := explore.ExploreParallel[*multiset.Multiset](
			explore.NewProtocolSystem(p), []*multiset.Multiset{c},
			explore.Options{MaxStates: 4_000_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !checked.StabilisesTo(want) {
			t.Fatalf("m=%d (|F|=%d): outcomes %v, want all %v (%d states)",
				m, f, checked.Outcomes, want, checked.NumStates)
		}
		t.Logf("m=%d: %d reachable protocol configurations, stabilises to %v",
			m, checked.NumStates, want)
	}
}

// TestLemma15LeaderElection simulates the converted ge1 protocol and checks
// that a configuration with one agent per pointer family (π(C)) is reached.
func TestLemma15LeaderElection(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	p := res.Protocol
	m := int64(res.NumPointers) + 3
	c, err := p.InitialConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.NewBatchRandomPair(p, sched.NewRand(5))
	for step := 0; step < 2_000_000; step++ {
		if res.Elected(c) {
			counts := res.AgentsPerFamily(c)
			if counts[len(counts)-1] != 3 {
				t.Fatalf("elected but %d register agents, want 3", counts[len(counts)-1])
			}
			return
		}
		s.Step(c)
	}
	t.Fatalf("election did not complete; family counts %v", res.AgentsPerFamily(c))
}

// TestTheorem2AlmostSelfStabilising places |F| agents in the input state
// plus one noise agent in an accepting fake-OF state. A 1-aware protocol
// would be fooled into accepting; the converted ge2 protocol must reject,
// because m − |F| = 1 < 2 (the noise agent is demoted by the election and
// recounted as an ordinary agent).
func TestTheorem2AlmostSelfStabilising(t *testing.T) {
	res := convertProgram(t, geTwoProgram())
	p := res.Protocol
	c, err := p.InitialConfig(int64(res.NumPointers))
	if err != nil {
		t.Fatal(err)
	}
	noise := p.StateIndex("OF=1·none|+") // accepting, opinion true, value true
	if noise < 0 {
		t.Fatal("noise state missing")
	}
	c.Add(noise, 1)

	s := sched.NewTransitionFair(p, sched.NewRand(9))
	var lastTrue int64
	var step int64
	for step = 0; step < 400_000; step++ {
		if !s.Step(c) {
			break
		}
		if p.OutputOf(c) != protocol.OutputFalse {
			lastTrue = step
		}
	}
	if step-lastTrue < 100_000 {
		t.Fatalf("protocol did not settle on reject: last non-false output at step %d of %d (families %v)",
			lastTrue, step, res.AgentsPerFamily(c))
	}
}

// TestTheorem2AcceptsWithNoise is the dual: enough agents in total, with
// noise scattered in arbitrary states, must still be accepted.
func TestTheorem2AcceptsWithNoise(t *testing.T) {
	res := convertProgram(t, geTwoProgram())
	p := res.Protocol
	// |F| intended agents + 3 noise agents in arbitrary states: total
	// m − |F| = 3 ≥ 2 → accept.
	c, err := p.InitialConfig(int64(res.NumPointers))
	if err != nil {
		t.Fatal(err)
	}
	for _, noisy := range []string{"OF=0·none|-", "CF=1·done|+", "x|-"} {
		idx := p.StateIndex(noisy)
		if idx < 0 {
			t.Fatalf("state %q missing", noisy)
		}
		c.Add(idx, 1)
	}
	s := sched.NewTransitionFair(p, sched.NewRand(17))
	var lastNonTrue, step int64
	for step = 0; step < 600_000; step++ {
		if !s.Step(c) {
			break
		}
		if p.OutputOf(c) != protocol.OutputTrue {
			lastNonTrue = step
		}
	}
	if step-lastNonTrue < 100_000 {
		t.Fatalf("protocol did not settle on accept: last non-true output at step %d of %d (families %v, output %v)",
			lastNonTrue, step, res.AgentsPerFamily(c), p.OutputOf(c))
	}
}

func TestConvertValidatesMachine(t *testing.T) {
	m := &popmachine.Machine{Name: "broken"}
	if _, err := Convert(m); err == nil {
		t.Fatal("Convert accepted an invalid machine")
	}
}

func TestFamiliesPartitionStates(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	fams := res.Families()
	if len(fams) != res.Protocol.NumStates() {
		t.Fatalf("families length %d, want %d", len(fams), res.Protocol.NumStates())
	}
	regs := 0
	for _, f := range fams {
		if f == -1 {
			regs++
		}
	}
	// One register × two opinions.
	if regs != 2 {
		t.Fatalf("%d register states, want 2", regs)
	}
}

func TestInputStateIsFirstPointer(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	p := res.Protocol
	if len(p.Input) != 1 {
		t.Fatalf("|I| = %d, want 1", len(p.Input))
	}
	name := p.States[p.Input[0]]
	if name != res.InputState()+"|-" {
		t.Fatalf("input state %q, want %q", name, res.InputState()+"|-")
	}
}
