package compile

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/sched"
)

// checkMachineDecides model-checks: for every placement of m agents into
// the machine's registers, every fair run stabilises to want.
func checkMachineDecides(t *testing.T, m *popmachine.Machine, total int64, want bool, maxStates int) {
	t.Helper()
	sys := popmachine.System{M: m}
	multiset.Enumerate(len(m.Registers), total, func(regs *multiset.Multiset) {
		init, err := m.InitialConfig(regs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := explore.ExploreParallel[*popmachine.Config](sys, []*popmachine.Config{init}, explore.Options{MaxStates: maxStates})
		if err != nil {
			t.Fatalf("m=%d from %v: %v", total, regs, err)
		}
		if !res.StabilisesTo(want) {
			t.Fatalf("m=%d from %v: outcomes %v, want all %v (%d states, witnesses %q)",
				total, regs, res.Outcomes, want, res.NumStates, res.WitnessKeys)
		}
	})
}

// figure5Program is the while-loop snippet of Figure 5:
//
//	Main: while ¬(detect x > 0) { x ↦ y }; while true {}
//
// (The paper's snippet loops while the detect *fails*; from x > 0 a fair
// run eventually detects x and exits without ever moving — x ↦ y only runs
// when detect returned false.)
func figure5Program() *popprog.Program {
	return &popprog.Program{
		Name:      "figure5",
		Registers: []string{"x", "y"},
		Procedures: []*popprog.Procedure{{
			Name: "Main",
			Body: []popprog.Stmt{
				popprog.While{
					Cond: popprog.Not{C: popprog.Detect{Reg: 0}},
					Body: []popprog.Stmt{popprog.Move{From: 0, To: 1}},
				},
				popprog.While{Cond: popprog.True{}},
			},
		}},
	}
}

func TestCompileFigure5WhileLoop(t *testing.T) {
	m, err := Compile(figure5Program())
	if err != nil {
		t.Fatal(err)
	}
	// Structure: detect + conditional jump + move + back jump appear in the
	// listing, as in Figure 5.
	listing := strings.Join(m.Listing(), "\n")
	for _, want := range []string{"detect x > 0", "x ↦ y", "if CF goto"} {
		if !strings.Contains(listing, want) {
			t.Fatalf("listing missing %q:\n%s", want, listing)
		}
	}
	// Semantics: under a truthful oracle from x = 3, the loop exits on the
	// first detect without moving anything.
	regs := multiset.FromCounts([]int64{3, 0})
	cfg, err := m.InitialConfig(regs)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(cfg, truthful{}, 100)
	if res.Hung {
		t.Fatal("machine hung unexpectedly")
	}
	if cfg.Regs.Count(0) != 3 {
		t.Fatalf("truthful run moved agents: %v", cfg.Regs)
	}
	// Under an always-false oracle the loop drains x into y, then hangs on
	// the empty move.
	cfg2, _ := m.InitialConfig(multiset.FromCounts([]int64{2, 0}))
	res2 := m.Run(cfg2, liar{}, 1000)
	if !res2.Hung {
		t.Fatal("liar run should hang once x is empty")
	}
	if cfg2.Regs.Count(1) != 2 {
		t.Fatalf("liar run should have drained x: %v", cfg2.Regs)
	}
}

type truthful struct{}

func (truthful) Detect(_ int, nonzero bool) bool { return nonzero }

type liar struct{}

func (liar) Detect(int, bool) bool { return false }

// figure6Program exercises procedure call/return lowering (Figure 6):
//
//	Main: if AddTwo() { OF := true }; while true {}
//	AddTwo: x ↦ y; x ↦ y; return true
func figure6Program() *popprog.Program {
	return &popprog.Program{
		Name:      "figure6",
		Registers: []string{"x", "y"},
		Procedures: []*popprog.Procedure{
			{
				Name: "Main",
				Body: []popprog.Stmt{
					popprog.If{
						Cond: popprog.CallCond{Proc: 1},
						Then: []popprog.Stmt{popprog.SetOF{Value: true}},
					},
					popprog.While{Cond: popprog.True{}},
				},
			},
			{
				Name:    "AddTwo",
				Returns: true,
				Body: []popprog.Stmt{
					popprog.Move{From: 0, To: 1},
					popprog.Move{From: 0, To: 1},
					popprog.Return{HasValue: true, Value: true},
				},
			},
		},
	}
}

func TestCompileFigure6ProcedureCall(t *testing.T) {
	m, err := Compile(figure6Program())
	if err != nil {
		t.Fatal(err)
	}
	// The machine must have a pointer for AddTwo whose domain holds the
	// single call site's return address.
	pi := m.PointerIndex("P_AddTwo")
	if pi < 0 {
		t.Fatal("no P_AddTwo pointer")
	}
	if got := len(m.Pointers[pi].Domain); got != 1 {
		t.Fatalf("P_AddTwo domain size %d, want 1 (one call site)", got)
	}
	// Semantics: from x = 2, AddTwo moves both units and returns true, so
	// OF is set and the machine spins with y = 2.
	cfg, _ := m.InitialConfig(multiset.FromCounts([]int64{2, 0}))
	res := m.Run(cfg, truthful{}, 200)
	if res.Hung {
		t.Fatal("machine hung")
	}
	if !m.Output(cfg) {
		t.Fatal("OF not set after successful AddTwo")
	}
	if cfg.Regs.Count(1) != 2 {
		t.Fatalf("AddTwo did not move two units: %v", cfg.Regs)
	}
	// From x = 1 the second move hangs inside AddTwo; OF stays false.
	cfg2, _ := m.InitialConfig(multiset.FromCounts([]int64{1, 0}))
	res2 := m.Run(cfg2, truthful{}, 200)
	if !res2.Hung || m.Output(cfg2) {
		t.Fatalf("expected hang with OF=false, got hung=%v OF=%v", res2.Hung, m.Output(cfg2))
	}
}

// figure7Program exercises restart lowering: Main restarts forever.
func figure7Program() *popprog.Program {
	return &popprog.Program{
		Name:      "figure7",
		Registers: []string{"x", "y", "z"},
		Procedures: []*popprog.Procedure{{
			Name: "Main",
			Body: []popprog.Stmt{popprog.Restart{}},
		}},
	}
}

func TestCompileFigure7RestartReachesAllConfigurations(t *testing.T) {
	prog := figure7Program()
	m, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Model-check from x=2: the restart helper must make *every*
	// 2-agent register configuration reachable (10 register multisets...
	// C(2+2,2) = 6 compositions over 3 registers).
	init, err := m.InitialConfig(multiset.FromCounts([]int64{2, 0, 0}))
	if err != nil {
		t.Fatal(err)
	}
	sys := popmachine.System{M: m}
	res, err := explore.ExploreParallel[*popmachine.Config](sys, []*popmachine.Config{init}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Collect reachable register multisets at instruction 1.
	seen := make(map[string]bool)
	var walk func(c *popmachine.Config)
	visited := make(map[string]bool)
	walk = func(c *popmachine.Config) {
		k := c.Key()
		if visited[k] {
			return
		}
		visited[k] = true
		if c.Pointers[m.IP] == 1 {
			seen[c.Regs.Key()] = true
		}
		for _, s := range m.Successors(c) {
			walk(s)
		}
	}
	walk(init)
	if len(seen) != 6 {
		t.Fatalf("restart reaches %d register configurations at IP=1, want all 6", len(seen))
	}
	_ = res
}

func TestCompileFigure7RandomisedRestart(t *testing.T) {
	m, err := Compile(figure7Program())
	if err != nil {
		t.Fatal(err)
	}
	// Drive with a random oracle; across a long run, many register
	// configurations should be visited at IP = 1.
	cfg, _ := m.InitialConfig(multiset.FromCounts([]int64{3, 0, 0}))
	oracle := popprog.NewRandomOracle(sched.NewRand(3))
	seen := make(map[string]bool)
	for step := 0; step < 20000; step++ {
		if cfg.Pointers[m.IP] == 1 {
			seen[cfg.Regs.Key()] = true
		}
		if m.Step(cfg, oracle) == popmachine.StepHang {
			t.Fatal("restart loop must never hang")
		}
	}
	// All C(3+2,2) = 10 compositions should eventually appear.
	if len(seen) < 8 {
		t.Fatalf("randomised restart visited only %d register configurations", len(seen))
	}
}

func TestCompileSwapViaRegisterMap(t *testing.T) {
	prog := &popprog.Program{
		Name:      "swapper",
		Registers: []string{"x", "y"},
		Procedures: []*popprog.Procedure{{
			Name: "Main",
			Body: []popprog.Stmt{
				popprog.Swap{A: 0, B: 1},
				popprog.Move{From: 0, To: 1}, // through the swapped map: y → x physically
				popprog.While{Cond: popprog.True{}},
			},
		}},
	}
	m, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := m.InitialConfig(multiset.FromCounts([]int64{0, 2}))
	res := m.Run(cfg, truthful{}, 100)
	if res.Hung {
		t.Fatal("hung")
	}
	// Swap makes program-register x denote physical y; the move x ↦ y then
	// moves one unit from physical y to physical x.
	if cfg.Regs.Count(0) != 1 || cfg.Regs.Count(1) != 1 {
		t.Fatalf("registers after swapped move: %v", cfg.Regs)
	}
	// Register map domains were widened to the swap class.
	vx := m.Pointers[m.VReg[0]]
	if len(vx.Domain) != 2 {
		t.Fatalf("V_x domain %v, want the swap class {0,1}", vx.Domain)
	}
}

func TestCompileRejectsInvalidProgram(t *testing.T) {
	prog := &popprog.Program{Name: "bad"}
	if _, err := Compile(prog); err == nil {
		t.Fatal("Compile accepted an invalid program")
	}
}

func TestCompiledFigure1DecidesExactly(t *testing.T) {
	// E2, exact half: compile the Figure 1 program (4 ≤ x < 7) and
	// model-check every initial placement for every population size. This
	// is the strongest statement this repository makes about Figure 1:
	// under global fairness the machine decides the interval predicate.
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	m, err := Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	for total := int64(1); total <= 8; total++ {
		want := total >= 4 && total < 7
		checkMachineDecides(t, m, total, want, 2_000_000)
	}
}

// geTwoForExact is a miniature of Figure 1 deciding m ≥ 2 with two
// registers (same program the convert tests use), here model-checked at
// the machine level over every placement.
func geTwoForExact() *popprog.Program {
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

func TestCompiledGeTwoDecidesExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	m, err := Compile(geTwoForExact())
	if err != nil {
		t.Fatal(err)
	}
	for total := int64(1); total <= 7; total++ {
		checkMachineDecides(t, m, total, total >= 2, 2_000_000)
	}
}

func TestCompiledProgramSizeLinear(t *testing.T) {
	// Proposition 14: machine size O(program size). Measure the ratio on
	// Figure 1 and on a trivial program; it must stay modest.
	// The bound is affine: a constant skeleton (special pointers + restart
	// helper + entry stub) plus a constant factor per unit of program size.
	for _, prog := range []*popprog.Program{figure5Program(), figure6Program(), popprog.Figure1Program()} {
		m, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", prog.Name, err)
		}
		if limit := 60 + 10*prog.Size(); m.Size() > limit {
			t.Fatalf("%s: machine size %d vs program size %d (limit %d)",
				prog.Name, m.Size(), prog.Size(), limit)
		}
	}
}

func TestCompiledMachineMatchesInterpreterOnFigure1(t *testing.T) {
	// Differential test: the machine (driven by a random oracle) and the
	// program interpreter must agree on the decided value for every total.
	m, err := Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	for total := int64(1); total <= 9; total++ {
		want := total >= 4 && total < 7
		regs := multiset.New(len(m.Registers))
		regs.Set(0, total)
		cfg, err := m.InitialConfig(regs)
		if err != nil {
			t.Fatal(err)
		}
		oracle := popprog.NewRandomOracle(sched.NewRand(total))
		var out bool
		decided := false
		for attempt := 0; attempt < 5 && !decided; attempt++ {
			res := m.Run(cfg, oracle, 400_000)
			if res.QuietSteps > 200_000 || res.Hung {
				out = res.Output
				decided = true
			}
		}
		if !decided {
			t.Fatalf("m=%d: machine run did not stabilise", total)
		}
		if out != want {
			t.Fatalf("m=%d: machine decided %v, want %v", total, out, want)
		}
	}
}
