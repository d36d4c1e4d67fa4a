package popmachine

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// figure3Machine hand-builds the machine of Figure 3:
//
//	1: detect x > 0
//	2: IP := 5 if CF else 3
//	3: x ↦ y
//	4: IP := 1
//	5: V_□ := V_x
//	6: V_x := V_y
//	7: V_y := V_□
//	8: IP := 8          (spin forever; added so instruction 7 can complete —
//	                     a non-jump at position L hangs without executing,
//	                     matching the paper's `i < L` guards)
//
// (while detect x > 0 { x ↦ y; swap x, y }.)
func figure3Machine(t *testing.T) *Machine {
	t.Helper()
	b := NewBuilder("figure3", []string{"x", "y"})
	m := b.Machine()
	b.SetVDomain(0, []int{0, 1})
	b.SetVDomain(1, []int{0, 1})
	b.SetVBoxDomain([]int{0, 1})
	b.Emit(DetectInstr{X: 0})                       // 1
	b.Emit(CondJump(m, 5, 3))                       // 2
	b.Emit(MoveInstr{X: 0, Y: 1})                   // 3
	b.Emit(Jump(m, 1))                              // 4
	b.Emit(identityAssign(m, m.VBox, m.VReg[0]))    // 5: V_□ := V_x
	b.Emit(identityAssign(m, m.VReg[0], m.VReg[1])) // 6: V_x := V_y
	b.Emit(identityAssign(m, m.VReg[1], m.VBox))    // 7: V_y := V_□
	b.Emit(Jump(m, 8))                              // 8: spin
	machine, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return machine
}

// identityAssign builds X := Y (the identity function on Dom(Y)).
func identityAssign(m *Machine, x, y int) AssignInstr {
	f := make(map[int]int, len(m.Pointers[y].Domain))
	for _, v := range m.Pointers[y].Domain {
		f[v] = v
	}
	return AssignInstr{X: x, Y: y, F: f}
}

type alwaysTrue struct{}

func (alwaysTrue) Detect(_ int, nonzero bool) bool { return nonzero }

type alwaysFalse struct{}

func (alwaysFalse) Detect(int, bool) bool { return false }

func TestBuilderLayout(t *testing.T) {
	m := figure3Machine(t)
	if m.Pointers[m.OF].Name != "OF" || m.Pointers[m.CF].Name != "CF" ||
		m.Pointers[m.IP].Name != "IP" {
		t.Fatal("special pointer names wrong")
	}
	if m.PointerIndex("V_x") != m.VReg[0] || m.PointerIndex("V_y") != m.VReg[1] {
		t.Fatal("register map pointers misplaced")
	}
	if m.PointerIndex("nope") != -1 {
		t.Fatal("PointerIndex invented a pointer")
	}
	if m.NumInstrs() != 8 {
		t.Fatalf("NumInstrs = %d", m.NumInstrs())
	}
}

func TestValidateCatchesBrokenMachines(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Machine)
		want   string // the exact error, where a case pins it
	}{
		{"empty domain", func(m *Machine) { m.Pointers[m.CF].Domain = nil }, ""},
		{"initial outside domain", func(m *Machine) { m.Pointers[m.OF].Initial = 7 },
			`popmachine "figure3": pointer "OF" initial value 7 outside domain`},
		{"non-boolean CF", func(m *Machine) { m.Pointers[m.CF].Domain = []int{0, 1, 2}; m.Pointers[m.CF].Initial = 0 }, ""},
		{"IP not at 1", func(m *Machine) { m.Pointers[m.IP].Initial = 2 }, ""},
		{"IP domain out of range", func(m *Machine) { m.Pointers[m.IP].Domain = append(m.Pointers[m.IP].Domain, 99) }, ""},
		{"V_x missing self", func(m *Machine) { m.Pointers[m.VReg[0]].Domain = []int{1}; m.Pointers[m.VReg[0]].Initial = 1 }, ""},
		{"V_x non-register value", func(m *Machine) { m.Pointers[m.VReg[0]].Domain = []int{0, 9} }, ""},
		{"move x=y", func(m *Machine) { m.Instrs[2] = MoveInstr{X: 1, Y: 1} }, ""},
		{"assign partial function", func(m *Machine) {
			in := m.Instrs[1].(AssignInstr)
			delete(in.F, ValFalse)
			m.Instrs[1] = in
		}, `popmachine "figure3": instr 2: f undefined on 0`},
		{"assign out of target domain", func(m *Machine) {
			in := m.Instrs[1].(AssignInstr)
			in.F[ValFalse] = 999
			m.Instrs[1] = in
		}, `popmachine "figure3": instr 2: f(0) = 999 outside domain of IP`},
		{"first failing source value in domain order", func(m *Machine) {
			// V_□'s domain lists 1 before 0: both images fall outside
			// V_x's domain, and the error names 1, the first in Domain
			// order, not the least value.
			m.Pointers[m.VBox].Domain = []int{1, 0}
			in := m.Instrs[5].(AssignInstr) // 6: V_x := V_y
			in.Y = m.VBox
			in.F = map[int]int{0: 7, 1: 8}
			m.Instrs[5] = in
		}, `popmachine "figure3": instr 6: f(1) = 8 outside domain of V_x`},
		{"outside before undefined", func(m *Machine) {
			// 6: V_x := V_y, where Dom(V_y) = [1 0] (SetVDomain lists the
			// register itself first): f(1) leaves V_x's domain before f(0)
			// is found undefined.
			in := m.Instrs[5].(AssignInstr)
			in.F = map[int]int{1: 5}
			m.Instrs[5] = in
		}, `popmachine "figure3": instr 6: f(1) = 5 outside domain of V_x`},
		{"CF pointer out of range", func(m *Machine) { m.CF = 42 },
			`popmachine "figure3": CF pointer index 42 out of range`},
		{"V_y pointer out of range", func(m *Machine) { m.VReg[1] = -3 },
			`popmachine "figure3": V_y pointer index -3 out of range`},
		{"assign target out of range", func(m *Machine) {
			in := m.Instrs[1].(AssignInstr)
			in.X = 99
			m.Instrs[1] = in
		}, `popmachine "figure3": instr 2 target pointer index 99 out of range`},
		{"assign source out of range", func(m *Machine) {
			in := m.Instrs[4].(AssignInstr)
			in.Y = -1
			m.Instrs[4] = in
		}, `popmachine "figure3": instr 5 source pointer index -1 out of range`},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			m := figure3Machine(t)
			tc.mutate(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken machine")
			}
			if tc.want != "" && err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

func TestSizeFormula(t *testing.T) {
	m := figure3Machine(t)
	domains := 0
	for _, p := range m.Pointers {
		domains += len(p.Domain)
	}
	want := len(m.Registers) + len(m.Pointers) + domains + len(m.Instrs)
	if got := m.Size(); got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
}

func TestInitialConfig(t *testing.T) {
	m := figure3Machine(t)
	c, err := m.InitialConfig(multiset.FromCounts([]int64{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if c.Pointers[m.IP] != 1 {
		t.Fatal("IP must start at 1")
	}
	if c.Pointers[m.VReg[0]] != 0 || c.Pointers[m.VReg[1]] != 1 {
		t.Fatal("register map must start as the identity")
	}
	if m.Output(c) {
		t.Fatal("OF must start false")
	}
	if _, err := m.InitialConfig(multiset.New(3)); err == nil {
		t.Fatal("accepted mismatched register width")
	}
}

func TestFigure3SemanticsWithRegisterMap(t *testing.T) {
	// Under a truthful oracle the first detect sets CF, the branch jumps to
	// the swap block (5–7), and the register map ends up exchanged while
	// the register contents stay put.
	m := figure3Machine(t)
	c, err := m.InitialConfig(multiset.FromCounts([]int64{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: detect with truthful oracle → CF true.
	if m.Step(c, alwaysTrue{}) != StepOK {
		t.Fatal("step 1 failed")
	}
	if c.Pointers[m.CF] != ValTrue || c.Pointers[m.IP] != 2 {
		t.Fatalf("after detect: CF=%d IP=%d", c.Pointers[m.CF], c.Pointers[m.IP])
	}
	// Step 2: jump to 5 (swap block).
	m.Step(c, alwaysTrue{})
	if c.Pointers[m.IP] != 5 {
		t.Fatalf("after branch: IP=%d", c.Pointers[m.IP])
	}
	// Steps 3-5: the three assignments swap the register map.
	m.Step(c, alwaysTrue{})
	m.Step(c, alwaysTrue{})
	m.Step(c, alwaysTrue{})
	if c.Pointers[m.VReg[0]] != 1 || c.Pointers[m.VReg[1]] != 0 {
		t.Fatalf("register map not swapped: V_x=%d V_y=%d",
			c.Pointers[m.VReg[0]], c.Pointers[m.VReg[1]])
	}
	// Registers are untouched by the swap.
	if c.Regs.Count(0) != 2 || c.Regs.Count(1) != 0 {
		t.Fatalf("swap moved register contents: %v", c.Regs)
	}
	// IP is now 8, the spin instruction: the machine loops forever.
	if m.Step(c, alwaysTrue{}) != StepOK || c.Pointers[m.IP] != 8 {
		t.Fatal("expected the terminal spin loop")
	}
}

func TestMoveThroughSwappedMap(t *testing.T) {
	// With the map swapped, instruction 3 (x ↦ y) must move a unit from
	// physical register y to physical register x.
	m := figure3Machine(t)
	c, _ := m.InitialConfig(multiset.FromCounts([]int64{0, 3}))
	c.Pointers[m.VReg[0]] = 1
	c.Pointers[m.VReg[1]] = 0
	c.Pointers[m.IP] = 3
	if m.Step(c, alwaysFalse{}) != StepOK {
		t.Fatal("move through swapped map failed")
	}
	if c.Regs.Count(0) != 1 || c.Regs.Count(1) != 2 {
		t.Fatalf("wrong move: %v", c.Regs)
	}
}

func TestMoveHangsOnEmpty(t *testing.T) {
	m := figure3Machine(t)
	c, _ := m.InitialConfig(multiset.FromCounts([]int64{0, 0}))
	c.Pointers[m.IP] = 3
	if m.Step(c, alwaysFalse{}) != StepHang {
		t.Fatal("move from empty register must hang")
	}
	if len(m.Successors(c)) != 0 {
		t.Fatal("hung configuration must have no successors")
	}
}

func TestDetectSuccessors(t *testing.T) {
	m := figure3Machine(t)
	nonzero, _ := m.InitialConfig(multiset.FromCounts([]int64{1, 0}))
	succ := m.Successors(nonzero)
	if len(succ) != 2 {
		t.Fatalf("detect on nonzero register: %d successors, want 2", len(succ))
	}
	sawTrue, sawFalse := false, false
	for _, s := range succ {
		if s.Pointers[m.IP] != 2 {
			t.Fatalf("successor IP = %d, want 2", s.Pointers[m.IP])
		}
		if s.Pointers[m.CF] == ValTrue {
			sawTrue = true
		} else {
			sawFalse = true
		}
	}
	if !sawTrue || !sawFalse {
		t.Fatal("detect must offer both CF outcomes on a nonzero register")
	}
	zero, _ := m.InitialConfig(multiset.FromCounts([]int64{0, 1}))
	if got := m.Successors(zero); len(got) != 1 || got[0].Pointers[m.CF] != ValFalse {
		t.Fatal("detect on zero register must force CF = false")
	}
}

func TestRunDrainsUnderTruthfulOracle(t *testing.T) {
	// Truthful oracle: the loop exits on the first detect (CF=true → 5),
	// swaps the map, and hangs. With the always-false oracle the loop
	// drains x into y one unit per iteration, then... detect false exits
	// too. Use a mixed scenario via Successors-based exploration below;
	// here just check Run reports hang.
	m := figure3Machine(t)
	c, _ := m.InitialConfig(multiset.FromCounts([]int64{2, 0}))
	res := m.Run(c, alwaysFalse{}, 1000)
	if !res.Hung {
		t.Fatalf("expected hang, got %+v", res)
	}
	if res.Output {
		t.Fatal("OF was never set")
	}
}

func TestExactExplorationOfFigure3(t *testing.T) {
	// Model-check the Figure 3 machine from x=2: all fair runs end hung
	// (every bottom SCC is a singleton) with OF = false.
	m := figure3Machine(t)
	c, err := m.InitialConfig(multiset.FromCounts([]int64{2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := explore.ExploreParallel[*Config](System{M: m}, []*Config{c}, explore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBottomSCCs == 0 {
		t.Fatal("no bottom SCCs found")
	}
	if !res.StabilisesTo(false) {
		t.Fatalf("outcomes %v, want all false", res.Outcomes)
	}
}

func TestListing(t *testing.T) {
	m := figure3Machine(t)
	ls := m.Listing()
	if len(ls) != 8 {
		t.Fatalf("listing has %d lines", len(ls))
	}
	if !strings.Contains(ls[0], "detect x > 0") {
		t.Fatalf("line 1 = %q", ls[0])
	}
	if !strings.Contains(ls[2], "x ↦ y") {
		t.Fatalf("line 3 = %q", ls[2])
	}
	if !strings.Contains(ls[1], "if CF goto 5 else 3") {
		t.Fatalf("line 2 = %q", ls[1])
	}
}

func TestConstAssignAndJumpHelpers(t *testing.T) {
	m := figure3Machine(t)
	ca := ConstAssign(m, m.OF, ValTrue)
	if ca.Y != m.CF || ca.F[ValFalse] != ValTrue || ca.F[ValTrue] != ValTrue {
		t.Fatalf("ConstAssign wrong: %+v", ca)
	}
	j := Jump(m, 3)
	if j.X != m.IP || j.F[ValFalse] != 3 || j.F[ValTrue] != 3 {
		t.Fatalf("Jump wrong: %+v", j)
	}
}

func TestConfigKeyDistinguishes(t *testing.T) {
	m := figure3Machine(t)
	a, _ := m.InitialConfig(multiset.FromCounts([]int64{1, 0}))
	b, _ := m.InitialConfig(multiset.FromCounts([]int64{0, 1}))
	c2, _ := m.InitialConfig(multiset.FromCounts([]int64{1, 0}))
	if a.Key() == b.Key() {
		t.Fatal("distinct configs share a key")
	}
	if a.Key() != c2.Key() {
		t.Fatal("equal configs have distinct keys")
	}
	c2.Pointers[m.CF] = ValTrue
	if a.Key() == c2.Key() {
		t.Fatal("pointer values not reflected in key")
	}
}

func TestSystemOutput(t *testing.T) {
	m := figure3Machine(t)
	c, _ := m.InitialConfig(multiset.FromCounts([]int64{1, 0}))
	sys := System{M: m}
	if sys.Output(c) != protocol.OutputFalse {
		t.Fatal("fresh config should output false")
	}
	c.Pointers[m.OF] = ValTrue
	if sys.Output(c) != protocol.OutputTrue {
		t.Fatal("OF=true should output true")
	}
}

func TestBuilderPatchAndNext(t *testing.T) {
	b := NewBuilder("patch", []string{"x"})
	m := b.Machine()
	if b.Next() != 1 {
		t.Fatalf("Next = %d", b.Next())
	}
	idx := b.Emit(DetectInstr{X: 0})
	b.Emit(Jump(m, 1)) // placeholder
	b.Patch(2, Jump(m, idx))
	machine, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if machine.Instrs[1].(AssignInstr).F[ValFalse] != 1 {
		t.Fatal("Patch did not replace the instruction")
	}
}

func TestFinishRejectsEmptyMachine(t *testing.T) {
	b := NewBuilder("empty", []string{"x"})
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish accepted a machine with no instructions")
	}
}
