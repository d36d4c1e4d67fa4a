package baseline

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/protocol"
)

func TestRemainderDecidesExactly(t *testing.T) {
	cases := []struct{ m, r int64 }{
		{2, 0}, // "is the total number of agents even" (§9)
		{2, 1},
		{3, 0},
		{3, 2},
		{5, 1},
	}
	for _, tc := range cases {
		p, err := Remainder(tc.m, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if err := explore.CheckDecidesParallel(p, RemainderPredicate(tc.m, tc.r), 1, 6, 1, explore.Options{}); err != nil {
			t.Fatalf("x ≡ %d (mod %d): %v", tc.r, tc.m, err)
		}
	}
}

func TestRemainderStateCount(t *testing.T) {
	for m := int64(2); m <= 8; m++ {
		p, err := Remainder(m, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(p.NumStates()); got != m+2 {
			t.Fatalf("mod %d: %d states, want %d", m, got, m+2)
		}
	}
}

func TestRemainderValidation(t *testing.T) {
	if _, err := Remainder(0, 0); err == nil {
		t.Fatal("accepted modulus 0")
	}
	if _, err := Remainder(3, 3); err == nil {
		t.Fatal("accepted residue ≥ modulus")
	}
	if _, err := Remainder(3, -1); err == nil {
		t.Fatal("accepted negative residue")
	}
}

func TestRemainderModOne(t *testing.T) {
	// x ≡ 0 (mod 1) is always true.
	p, err := Remainder(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := explore.CheckDecidesParallel(p, func([]int64) bool { return true }, 1, 5, 1, explore.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestProductOfThresholdAndRemainder(t *testing.T) {
	// x ≥ 3 ∧ x ≡ 0 (mod 2): an interval-free Presburger combination,
	// verified exactly via the product construction.
	th, err := UnaryThreshold(3)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := Remainder(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := protocol.Product("ge3-and-even", th, rem, protocol.OpAnd)
	if err != nil {
		t.Fatal(err)
	}
	pred := protocol.ProductPredicate(ThresholdPredicate(3), RemainderPredicate(2, 0), protocol.OpAnd)
	if err := explore.CheckDecidesParallel(prod, pred, 1, 6, 1, explore.Options{}); err != nil {
		t.Fatalf("product verification: %v", err)
	}
}

func TestProductOr(t *testing.T) {
	// x ≥ 4 ∨ x ≡ 1 (mod 3).
	th, err := UnaryThreshold(4)
	if err != nil {
		t.Fatal(err)
	}
	rem, err := Remainder(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := protocol.Product("ge4-or-1mod3", th, rem, protocol.OpOr)
	if err != nil {
		t.Fatal(err)
	}
	pred := protocol.ProductPredicate(ThresholdPredicate(4), RemainderPredicate(3, 1), protocol.OpOr)
	if err := explore.CheckDecidesParallel(prod, pred, 1, 6, 1, explore.Options{}); err != nil {
		t.Fatalf("product verification: %v", err)
	}
}

func TestProductInputArityMismatch(t *testing.T) {
	maj, err := Majority()
	if err != nil {
		t.Fatal(err)
	}
	th, err := UnaryThreshold(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := protocol.Product("bad", maj, th, protocol.OpAnd); err == nil {
		t.Fatal("accepted mismatched input arities")
	}
}

func TestBoolOpString(t *testing.T) {
	if protocol.OpAnd.String() != "and" || protocol.OpOr.String() != "or" {
		t.Fatal("BoolOp strings wrong")
	}
}
