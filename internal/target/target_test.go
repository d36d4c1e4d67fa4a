package target

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/explore"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		kind    Kind
		param   int64
		wantErr string // empty: the name parses
	}{
		{"majority", All, 0, ""},
		{"unary:9", All, 9, ""},
		{"binary:0", All, 0, ""},
		{"remainder:3", All, 3, ""},
		{"figure1", All, 0, ""},
		{"czerner:3", All, 3, ""},
		{"equality:1", Programs, 1, ""},
		{"unary:1024", Protocols, 1024, ""},
		{"czerner:22", All, 22, ""},
		{"nope", All, 0, `unknown target "nope" (want majority | unary:k`},
		{"nope", Programs, 0, "(want figure1 | czerner:n | equality:n)"},
		{"majority:3", All, 0, "majority takes no parameter"},
		{"figure1:9", All, 0, "figure1 takes no parameter"},
		{"unary", All, 0, `target "unary" needs a parameter, e.g. unary:2`},
		{"czerner", All, 0, `target "czerner" needs a parameter`},
		{"unary:x", All, 0, `parameter "x" is not an integer`},
		{"unary:0", All, 0, "k must be in [1, 1024], got 0"},
		{"unary:100000", All, 0, "k must be in [1, 1024], got 100000"},
		{"binary:-1", All, 0, "j must be in [0, 62], got -1"},
		{"remainder:0", All, 0, "m must be in [1, 1024], got 0"},
		{"czerner:0", All, 0, "n must be in [1, 22], got 0"},
		{"czerner:40", All, 0, "n must be in [1, 22], got 40"},
		{"equality:23", All, 0, "n must be in [1, 22], got 23"},
		{"majority", Programs, 0, `target "majority" is not a population program`},
		{"czerner:2", Protocols, 0, `target "czerner:2" is not a protocol (want majority | unary:k | binary:j | remainder:m)`},
	}
	for _, tc := range cases {
		got, err := ParseKind(tc.in, tc.kind)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%q: %v", tc.in, err)
			} else if got.fam.name != strings.SplitN(tc.in, ":", 2)[0] || got.param != tc.param {
				t.Errorf("%q: parsed as (%q, %d)", tc.in, got.fam.name, got.param)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%q: error %v, want one containing %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestBinaryThresholdNoOverflow pins the largest binary exponent: 2^62 still
// fits an int64, so binary:62 rejects [5] and accepts 2^62; binary:63 and
// binary:64, whose 1<<j wraps to a non-positive threshold that accepted
// every input, are rejected at parse time.
func TestBinaryThresholdNoOverflow(t *testing.T) {
	tg, err := Parse("binary:62")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Predicate([]int64{5}) || !b.Predicate([]int64{1 << 62}) || b.Predicate([]int64{1<<62 - 1}) {
		t.Fatal("binary:62 predicate is not x ≥ 2^62")
	}
	for _, name := range []string{"binary:63", "binary:64"} {
		if _, err := Parse(name); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestProtocolPredicates pins every protocol family's registered predicate
// once for every surface: the built protocol decides it exactly on all
// inputs of 1..5 agents, at the three smallest parameters.
func TestProtocolPredicates(t *testing.T) {
	for _, f := range families {
		if f.kind != Protocols {
			continue
		}
		names := []string{f.name}
		if f.param != "" {
			names = nil
			for v := f.min; v < f.min+3; v++ {
				names = append(names, fmt.Sprintf("%s:%d", f.name, v))
			}
		}
		for _, name := range names {
			tg, err := Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tg.Build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if b.Protocol == nil || b.Program != nil {
				t.Fatalf("%s: built %+v, want a protocol only", name, b)
			}
			if err := explore.CheckDecidesParallel(b.Protocol, b.Predicate, 1, 5, 2, explore.Options{}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestProgramPredicates pins the program families' predicates over the
// total: Figure 1's window 4 ≤ x < 7, and x ≥ K or x = K for the §6
// constructions (K = 2 at n = 1).
func TestProgramPredicates(t *testing.T) {
	cases := []struct {
		name string
		want func(x int64) bool
	}{
		{"figure1", func(x int64) bool { return x >= 4 && x < 7 }},
		{"czerner:1", func(x int64) bool { return x >= 2 }},
		{"equality:1", func(x int64) bool { return x == 2 }},
	}
	for _, tc := range cases {
		tg, err := ParseKind(tc.name, Programs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tg.Build()
		if err != nil {
			t.Fatal(err)
		}
		if b.Program == nil || b.Protocol != nil || (b.Construction != nil) != (tc.name != "figure1") {
			t.Fatalf("%s: built %+v", tc.name, b)
		}
		for x := int64(0); x <= 8; x++ {
			if got := b.Predicate([]int64{x}); got != tc.want(x) {
				t.Errorf("%s: predicate(%d) = %v", tc.name, x, got)
			}
		}
	}
	// A threshold beyond int64 exceeds every total.
	tg, _ := Parse("czerner:22")
	b, err := tg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b.Predicate([]int64{1<<63 - 1}) {
		t.Error("czerner:22 accepted the largest int64 total")
	}
}

func TestUsage(t *testing.T) {
	if got, want := Usage(All), "majority | unary:k | binary:j | remainder:m | figure1 | czerner:n | equality:n"; got != want {
		t.Errorf("Usage(All) = %q, want %q", got, want)
	}
	if got, want := Usage(Programs), "figure1 | czerner:n | equality:n"; got != want {
		t.Errorf("Usage(Programs) = %q, want %q", got, want)
	}
	if got, want := Help(Programs), "figure1 | czerner:n | equality:n (czerner:n in [1, 22], equality:n in [1, 22])"; got != want {
		t.Errorf("Help(Programs) = %q, want %q", got, want)
	}
}
