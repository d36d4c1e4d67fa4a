package protocol

import (
	"math"
	"strings"
	"testing"
)

// majority builds the classic 4-state exact majority protocol used as the
// paper's introductory example: decide x ≥ y.
func majority(t *testing.T) *Protocol {
	t.Helper()
	b := NewBuilder("majority")
	b.Input("X", "Y")
	// Active X meets active Y: both become passive followers of "tie → accept".
	b.Transition("X", "Y", "x", "x")
	// Actives convert passives to their own opinion.
	b.Transition("X", "y", "X", "x")
	b.Transition("Y", "x", "Y", "y")
	// Tie cleanup: a weak accepter converts a weak rejecter, so ties
	// (which cancel every active pair) still converge to all-accepting.
	b.Transition("x", "y", "x", "x")
	b.Accepting("X", "x")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build majority: %v", err)
	}
	return p
}

func TestValidateRejectsBadProtocols(t *testing.T) {
	cases := []struct {
		name string
		p    Protocol
		want string // the exact error, where a case pins it
	}{
		{"no states", Protocol{Name: "p"}, ""},
		{"no input", Protocol{Name: "p", States: []string{"a"}, Accepting: []bool{false}}, ""},
		{"bad accepting len", Protocol{
			Name: "p", States: []string{"a"}, Input: []int{0}, Accepting: nil,
		}, ""},
		{"input out of range", Protocol{
			Name: "p", States: []string{"a"}, Input: []int{3}, Accepting: []bool{false},
		}, ""},
		{"transition out of range", Protocol{
			Name: "p", States: []string{"a"}, Input: []int{0}, Accepting: []bool{false},
			Transitions: []Transition{{Q: 0, R: 5, Q2: 0, R2: 0}},
		}, `protocol "p": transition 0 references state 5 out of range`},
		{"first bad index of a later transition", Protocol{
			Name: "p", States: []string{"a", "b"}, Input: []int{0}, Accepting: []bool{false, false},
			Transitions: []Transition{{Q: 0, R: 1, Q2: 1, R2: 0}, {Q: 1, R: 0, Q2: -1, R2: 2}},
		}, `protocol "p": transition 1 references state -1 out of range`},
		{"duplicate names", Protocol{
			Name: "p", States: []string{"a", "a"}, Input: []int{0},
			Accepting: []bool{false, false},
		}, ""},
		{"empty name", Protocol{
			Name: "p", States: []string{""}, Input: []int{0}, Accepting: []bool{false},
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if err == nil {
				t.Fatal("Validate accepted an ill-formed protocol")
			}
			if tc.want != "" && err.Error() != tc.want {
				t.Fatalf("error %q, want %q", err, tc.want)
			}
		})
	}
}

func TestStateIndex(t *testing.T) {
	p := majority(t)
	if p.StateIndex("X") < 0 || p.StateIndex("y") < 0 {
		t.Fatal("StateIndex missed a known state")
	}
	if p.StateIndex("nope") != -1 {
		t.Fatal("StateIndex found a nonexistent state")
	}
	if p.States[p.StateIndex("Y")] != "Y" {
		t.Fatal("StateIndex returned a mismatched index")
	}
}

func TestInitialConfig(t *testing.T) {
	p := majority(t)
	c, err := p.InitialConfig(3, 2)
	if err != nil {
		t.Fatalf("InitialConfig: %v", err)
	}
	if c.Count(p.StateIndex("X")) != 3 || c.Count(p.StateIndex("Y")) != 2 {
		t.Fatalf("unexpected initial config %v", c)
	}
	if !p.IsInitial(c) {
		t.Fatal("initial configuration not recognised as initial")
	}
	if _, err := p.InitialConfig(1); err == nil {
		t.Fatal("InitialConfig accepted wrong arity")
	}
	if _, err := p.InitialConfig(0, 0); err == nil {
		t.Fatal("InitialConfig accepted the empty configuration")
	}
	if _, err := p.InitialConfig(-1, 2); err == nil {
		t.Fatal("InitialConfig accepted a negative count")
	}
	// A total past math.MaxInt64 is rejected instead of wrapping negative.
	if _, err := p.InitialConfig(math.MaxInt64, 1); err == nil || !strings.Contains(err.Error(), "total more than") {
		t.Fatalf("InitialConfig(MaxInt64, 1): err = %v, want a total overflow error", err)
	}
	if c, err := p.InitialConfig(math.MaxInt64-1, 1); err != nil || c.Size() != math.MaxInt64 {
		t.Fatalf("InitialConfig(MaxInt64-1, 1) = %v, %v; want a configuration of MaxInt64 agents", c, err)
	}
}

func TestIsInitialRejectsNonInputStates(t *testing.T) {
	p := majority(t)
	c := p.NewConfig()
	c.Add(p.StateIndex("x"), 1)
	if p.IsInitial(c) {
		t.Fatal("configuration with a non-input agent reported as initial")
	}
}

func TestEnabledRequiresTwoAgentsForSelfPair(t *testing.T) {
	b := NewBuilder("selfpair")
	b.Input("a")
	b.Transition("a", "a", "b", "b")
	b.Accepting("b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	one, _ := p.InitialConfig(1)
	two, _ := p.InitialConfig(2)
	tr := p.Transitions[0]
	if p.Enabled(one, tr) {
		t.Fatal("(a,a↦b,b) should need two agents in a")
	}
	if !p.Enabled(two, tr) {
		t.Fatal("(a,a↦b,b) should be enabled with two agents")
	}
}

func TestApplyConservesAgents(t *testing.T) {
	p := majority(t)
	c, _ := p.InitialConfig(2, 2)
	before := c.Size()
	p.Apply(c, p.Transitions[0])
	if c.Size() != before {
		t.Fatalf("Apply changed the population size: %d → %d", before, c.Size())
	}
	if c.Count(p.StateIndex("x")) != 2 {
		t.Fatalf("X,Y ↦ x,x not applied: %v", c.Format(p.States))
	}
}

func TestApplyPanicsWhenDisabled(t *testing.T) {
	p := majority(t)
	c, _ := p.InitialConfig(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Apply fired a disabled transition")
		}
	}()
	p.Apply(c, p.Transitions[0])
}

func TestEnabledTransitionsSkipsSilent(t *testing.T) {
	b := NewBuilder("silent")
	b.Input("a")
	b.Transition("a", "a", "a", "a") // silent
	b.Transition("a", "b", "b", "a") // silent (swapped pairing)
	b.Transition("a", "a", "a", "b") // real
	b.Accepting("b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(3)
	en := p.EnabledTransitions(c)
	if len(en) != 1 || en[0] != 2 || !p.AnyEnabled(c) {
		t.Fatalf("EnabledTransitions = %v, AnyEnabled = %v; want [2], true", en, p.AnyEnabled(c))
	}
	// A single agent enables nothing: (a, a) needs two agents, (a, b) a b.
	c, _ = p.InitialConfig(1)
	if en := p.EnabledTransitions(c); len(en) != 0 || p.AnyEnabled(c) {
		t.Fatalf("EnabledTransitions = %v, AnyEnabled = %v; want [], false", en, p.AnyEnabled(c))
	}
}

func TestSuccessorsDistinct(t *testing.T) {
	p := majority(t)
	c, _ := p.InitialConfig(2, 2)
	succ := p.Successors(c)
	// Only (X,Y ↦ x,x) is enabled, so exactly one distinct successor.
	if len(succ) != 1 {
		t.Fatalf("got %d successors, want 1", len(succ))
	}
	if succ[0].Count(p.StateIndex("x")) != 2 {
		t.Fatalf("unexpected successor %v", succ[0].Format(p.States))
	}
}

func TestSuccessorsDedupe(t *testing.T) {
	b := NewBuilder("dedupe")
	b.Input("a", "b")
	b.Transition("a", "b", "c", "c")
	b.Transition("b", "a", "c", "c") // same effect, must dedupe
	b.Accepting("c")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := p.InitialConfig(1, 1)
	if succ := p.Successors(c); len(succ) != 1 {
		t.Fatalf("got %d successors, want 1 after dedupe", len(succ))
	}
}

func TestOutputOf(t *testing.T) {
	p := majority(t)
	cTrue := p.NewConfig()
	cTrue.Add(p.StateIndex("X"), 2)
	cTrue.Add(p.StateIndex("x"), 1)
	if got := p.OutputOf(cTrue); got != OutputTrue {
		t.Fatalf("OutputOf = %v, want true", got)
	}
	cFalse := p.NewConfig()
	cFalse.Add(p.StateIndex("Y"), 1)
	if got := p.OutputOf(cFalse); got != OutputFalse {
		t.Fatalf("OutputOf = %v, want false", got)
	}
	cMixed := p.NewConfig()
	cMixed.Add(p.StateIndex("X"), 1)
	cMixed.Add(p.StateIndex("Y"), 1)
	if got := p.OutputOf(cMixed); got != OutputMixed {
		t.Fatalf("OutputOf = %v, want mixed", got)
	}
	if got := p.OutputOf(p.NewConfig()); got != OutputMixed {
		t.Fatalf("OutputOf(empty) = %v, want mixed", got)
	}
}

func TestOutputString(t *testing.T) {
	if OutputTrue.String() != "true" || OutputFalse.String() != "false" || OutputMixed.String() != "mixed" {
		t.Fatal("Output.String mismatch")
	}
}

func TestInputCounts(t *testing.T) {
	p := majority(t)
	c, _ := p.InitialConfig(4, 1)
	got := p.InputCounts(c)
	if len(got) != 2 || got[0] != 4 || got[1] != 1 {
		t.Fatalf("InputCounts = %v", got)
	}
}

func TestIsSilent(t *testing.T) {
	if !(Transition{Q: 1, R: 2, Q2: 1, R2: 2}).IsSilent() {
		t.Fatal("identity transition should be silent")
	}
	if !(Transition{Q: 1, R: 2, Q2: 2, R2: 1}).IsSilent() {
		t.Fatal("swapped identity should be silent")
	}
	if (Transition{Q: 1, R: 2, Q2: 2, R2: 2}).IsSilent() {
		t.Fatal("state-changing transition reported silent")
	}
}

func TestBuilderIdempotentStates(t *testing.T) {
	b := NewBuilder("idem")
	i := b.State("s")
	j := b.State("s")
	if i != j {
		t.Fatalf("State(\"s\") returned %d then %d", i, j)
	}
	if b.NumStates() != 1 {
		t.Fatalf("NumStates = %d, want 1", b.NumStates())
	}
	if !b.HasState("s") || b.HasState("t") {
		t.Fatal("HasState mismatch")
	}
}

func TestBuilderAcceptingIf(t *testing.T) {
	b := NewBuilder("cond")
	b.Input("a")
	b.AcceptingIf("a", false)
	b.AcceptingIf("b", true)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Accepting[p.StateIndex("a")] {
		t.Fatal("a should not be accepting")
	}
	if !p.Accepting[p.StateIndex("b")] {
		t.Fatal("b should be accepting")
	}
}

// A fair-run sanity check at the protocol level: from X=2, Y=1 the majority
// protocol's reachable graph must contain a configuration with output true
// from which no rejecting state is reachable.
func TestMajorityStabilisesByHand(t *testing.T) {
	p := majority(t)
	c, _ := p.InitialConfig(2, 1)
	// X,Y ↦ x,x leaves {X:1, x:2}; then no transition changes anything.
	p.Apply(c, p.Transitions[0])
	if got := p.OutputOf(c); got != OutputTrue {
		t.Fatalf("output after one step = %v, want true", got)
	}
	if succ := p.Successors(c); len(succ) != 0 {
		var names []string
		for _, s := range succ {
			names = append(names, s.Format(p.States))
		}
		t.Fatalf("expected a stable configuration, got successors %v", names)
	}
}

func TestNewConfigSize(t *testing.T) {
	p := majority(t)
	c := p.NewConfig()
	if c.Len() != p.NumStates() {
		t.Fatalf("NewConfig length %d, want %d", c.Len(), p.NumStates())
	}
}

// TestCheckNumStatesBound pins the int32 state bound that Validate,
// Builder, Product and the §7.3 conversion enforce. It calls the check
// directly, so no table of 2³¹ states is ever allocated.
func TestCheckNumStatesBound(t *testing.T) {
	if MaxStates != math.MaxInt32 {
		t.Fatalf("MaxStates = %d, want 2³¹−1", MaxStates)
	}
	for _, n := range []int{0, 1, MaxStates} {
		if err := CheckNumStates("p", n); err != nil {
			t.Fatalf("CheckNumStates(%d) = %v, want nil", n, err)
		}
	}
	err := CheckNumStates("p", MaxStates+1)
	want := `protocol "p": 2147483648 states exceed the 2147483647 that int32 transition indices address`
	if err == nil || err.Error() != want {
		t.Fatalf("CheckNumStates(2³¹) = %v, want %q", err, want)
	}
}
