package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// programTarget returns one of the paper's population programs by name
// (figure1 | czerner:n | equality:n) and the predicate it decides on the
// total population.
func programTarget(name string) (*popprog.Program, func(int64) bool, error) {
	if name == "figure1" {
		return popprog.Figure1Program(), func(t int64) bool { return t >= 4 && t < 7 }, nil
	}
	family, arg, _ := strings.Cut(name, ":")
	n, err := strconv.Atoi(arg)
	if err != nil {
		return nil, nil, fmt.Errorf("target %q: %w", name, err)
	}
	var c *core.Construction
	switch family {
	case "czerner":
		c, err = core.New(n)
	case "equality":
		c, err = core.NewEquality(n)
	default:
		return nil, nil, fmt.Errorf("unknown program target %q", name)
	}
	if err != nil {
		return nil, nil, err
	}
	k := c.K.Int64()
	if family == "equality" {
		return c.Program, func(t int64) bool { return t == k }, nil
	}
	return c.Program, func(t int64) bool { return t >= k }, nil
}

// protocolTarget returns one of the baseline protocols by name (majority |
// unary:k | binary:j | remainder:m | ge3-and-even) and its predicate.
func protocolTarget(name string) (*protocol.Protocol, protocol.Predicate, error) {
	family, arg, _ := strings.Cut(name, ":")
	n, _ := strconv.Atoi(arg)
	var p *protocol.Protocol
	var err error
	switch family {
	case "majority":
		p, err = baseline.Majority()
		return p, baseline.MajorityPredicate, err
	case "unary":
		p, err = baseline.UnaryThreshold(int64(n))
		return p, baseline.ThresholdPredicate(int64(n)), err
	case "binary":
		p, err = baseline.BinaryThreshold(n)
		return p, baseline.ThresholdPredicate(int64(1) << n), err
	case "remainder":
		p, err = baseline.Remainder(int64(n), 0)
		return p, baseline.RemainderPredicate(int64(n), 0), err
	case "ge3-and-even":
		th, err := baseline.UnaryThreshold(3)
		if err != nil {
			return nil, nil, err
		}
		even, err := baseline.Remainder(2, 0)
		if err != nil {
			return nil, nil, err
		}
		p, err = protocol.Product(family, th, even, protocol.OpAnd)
		return p, protocol.ProductPredicate(baseline.ThresholdPredicate(3),
			baseline.RemainderPredicate(2, 0), protocol.OpAnd), err
	}
	return nil, nil, fmt.Errorf("unknown protocol target %q", name)
}

// windowSource renders a Figure 1 variant deciding a ≤ x < b: Test(4) and
// Test(7) become Test(a) and Test(b). The name goes into the program's
// canonical hash, so two names give two cache entries even for equal a, b.
func windowSource(name string, a, b int) string {
	test := func(proc string, n int) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "bool proc %s {\n", proc)
		for i := 0; i < n; i++ {
			sb.WriteString("  if detect x {\n    move x -> y\n  } else {\n    return false\n  }\n")
		}
		sb.WriteString("  return true\n}\n")
		return sb.String()
	}
	return "program " + name + `
registers x, y, z

proc Main {
  of false
  while not TestA() {
    Clean()
  }
  of true
  while not TestB() {
    Clean()
  }
  of false
  while true {
    Clean()
  }
}

` + test("TestA", a) + "\n" + test("TestB", b) + `
proc Clean {
  if detect z {
    restart
  }
  swap x, y
  while detect y {
    move y -> x
  }
}
`
}

// passRand is the random source of one pass: the same (seed, pass) always
// yields the same op order and the same simulation seeds.
func passRand(seed int64, pass int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
}

// fixedOps is an instance whose every pass runs one op list in a seeded
// order.
type fixedOps struct {
	seed int64
	ops  []op
}

func (f *fixedOps) pass(p int) []op { return shuffled(f.ops, passRand(f.seed, p)) }
func (f *fixedOps) close() error    { return nil }

// shuffled returns a seeded permutation of ops.
func shuffled(ops []op, rng *rand.Rand) []op {
	out := append([]op(nil), ops...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
