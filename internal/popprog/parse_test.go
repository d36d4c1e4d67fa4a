package popprog

import (
	"strings"
	"testing"
)

const figure1Source = `
# φ(x) ⟺ 4 ≤ x < 7 — Figure 1 of the paper, in the text format.
program figure1
registers x, y, z

proc Main {
  of false
  while not Test4() { Clean() }
  of true
  while not Test7() { Clean() }
  of false
  while true { Clean() }
}

bool proc Test4 {
  repeat 4 {
    if detect x { move x -> y } else { return false }
  }
  return true
}

bool proc Test7 {
  repeat 7 {
    if detect x { move x -> y } else { return false }
  }
  return true
}

proc Clean {
  if detect z { restart }
  swap x, y
  while detect y { move y -> x }
}
`

func TestParseFigure1Source(t *testing.T) {
	prog, err := Parse(figure1Source)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "figure1" {
		t.Fatalf("name %q", prog.Name)
	}
	if len(prog.Registers) != 3 || len(prog.Procedures) != 4 {
		t.Fatalf("shape: %d registers, %d procedures",
			len(prog.Registers), len(prog.Procedures))
	}
	// The parsed program must agree with the hand-built Figure1Program on
	// structural measures and on every decision.
	ref := Figure1Program()
	if prog.InstructionCount() != ref.InstructionCount() {
		t.Fatalf("instruction count %d vs reference %d",
			prog.InstructionCount(), ref.InstructionCount())
	}
	if prog.SwapSize() != ref.SwapSize() {
		t.Fatalf("swap size %d vs reference %d", prog.SwapSize(), ref.SwapSize())
	}
	for m := int64(1); m <= 9; m++ {
		want := m >= 4 && m < 7
		res, err := DecideTotal(prog, m, DecideOptions{Seed: m, Budget: 300_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Output != want {
			t.Fatalf("m=%d: parsed program decided %v, want %v", m, res.Output, want)
		}
	}
}

func TestParseForwardReference(t *testing.T) {
	src := `
registers a
proc Main {
  Later()
  while true { }
}
proc Later {
  of true
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Procedures[0].Body == nil {
		t.Fatal("Main body missing")
	}
	call, ok := prog.Procedures[0].Body[0].(Call)
	if !ok || prog.Procedures[call.Proc].Name != "Later" {
		t.Fatalf("forward call not resolved: %+v", prog.Procedures[0].Body[0])
	}
}

func TestParseConditionPrecedence(t *testing.T) {
	src := `
registers a, b, c
proc Main {
  if detect a or detect b and detect c { of true }
  if (detect a or detect b) and detect c { of false }
  while true { }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// First condition: Or(a, And(b, c)) — and binds tighter.
	first := prog.Procedures[0].Body[0].(If).Cond
	or, ok := first.(Or)
	if !ok {
		t.Fatalf("top connective %T, want Or", first)
	}
	if _, ok := or.R.(And); !ok {
		t.Fatalf("right arm %T, want And", or.R)
	}
	// Second condition: And(Or(a, b), c) — parentheses override.
	second := prog.Procedures[0].Body[1].(If).Cond
	and, ok := second.(And)
	if !ok {
		t.Fatalf("top connective %T, want And", second)
	}
	if _, ok := and.L.(Or); !ok {
		t.Fatalf("left arm %T, want Or", and.L)
	}
}

func TestParseEmptyProcedure(t *testing.T) {
	src := `
registers a
proc Main {
  Noop()
  while true { }
}
proc Noop { }
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"missing registers", `proc Main { while true { } }`, "registers"},
		{"unknown register", `registers a
proc Main { move a -> b while true { } }`, "unknown register"},
		{"unknown procedure", `registers a
proc Main { Ghost() while true { } }`, "unknown procedure"},
		{"duplicate registers", `registers a, a
proc Main { while true { } }`, "duplicate register"},
		{"duplicate procedures", `registers a
proc Main { while true { } }
proc Main { while true { } }`, "duplicate procedure"},
		{"unterminated block", `registers a
proc Main { while true {`, "unterminated"},
		{"bad of", `registers a
proc Main { of maybe while true { } }`, "true/false"},
		{"value return in plain proc", `registers a
proc Main { while true { } }
proc P { return true }`, "value return"},
		{"recursion", `registers a
proc Main { Main() }`, "recursive"},
		{"bad repeat count", `registers a
proc Main { repeat x { } while true { } }`, "repeat count"},
		{"stray char", `registers a
proc Main { @ }`, "unexpected character"},
		{"not a program", `not a program`, `expected "registers"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatal("Parse accepted an invalid program")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseRepeatExpansion(t *testing.T) {
	src := `
registers a, b
proc Main {
  repeat 3 { swap a, b }
  while true { }
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// 3 swaps + the while-true.
	if got := len(prog.Procedures[0].Body); got != 4 {
		t.Fatalf("body has %d statements, want 4", got)
	}
}
