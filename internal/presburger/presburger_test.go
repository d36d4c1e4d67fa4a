package presburger

import (
	"math/big"
	"testing"
)

func TestTermArithmetic(t *testing.T) {
	tm := NewTerm()
	tm.Add("x", big.NewInt(2))
	tm.Add("y", big.NewInt(-1))
	tm.Add("x", big.NewInt(1))
	if got := tm.Coeff("x"); got.Cmp(big.NewInt(3)) != 0 {
		t.Fatalf("Coeff(x) = %s, want 3", got)
	}
	if got := tm.Coeff("z"); got.Sign() != 0 {
		t.Fatalf("Coeff(z) = %s, want 0", got)
	}
}

func TestTermCancellation(t *testing.T) {
	tm := Var("x")
	tm.Add("x", big.NewInt(-1))
	if len(tm.Variables()) != 0 {
		t.Fatalf("cancelled variable still present: %v", tm.Variables())
	}
	if tm.String() != "0" {
		t.Fatalf("String = %q, want \"0\"", tm.String())
	}
}

func TestThresholdSizeIsLogK(t *testing.T) {
	// |x ≥ 2^n| must grow linearly in n (§1: |φ_n| ∈ Θ(n)).
	var sizes []int64
	for n := 1; n <= 64; n *= 2 {
		k := new(big.Int).Lsh(big.NewInt(1), uint(n))
		sizes = append(sizes, Threshold("x", k).Size())
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("sizes not increasing: %v", sizes)
		}
	}
	// Linear in bits: size(2^64) − size(2^1) should be ≈ 63.
	if diff := sizes[len(sizes)-1] - sizes[0]; diff < 50 || diff > 80 {
		t.Fatalf("threshold size not linear in log k: %v", sizes)
	}
}

func TestComparisonString(t *testing.T) {
	ops := map[Comparison]string{
		Less: "<", LessEq: "<=", Equal: "=", NotEqual: "!=",
		GreaterEq: ">=", Greater: ">",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestTermString(t *testing.T) {
	tm := NewTerm()
	tm.Add("x", big.NewInt(2))
	tm.Add("y", big.NewInt(-1))
	tm.Add("z", big.NewInt(1))
	if got := tm.String(); got != "2*x - y + z" {
		t.Fatalf("Term.String = %q", got)
	}
	neg := NewTerm()
	neg.Add("x", big.NewInt(-3))
	if got := neg.String(); got != "-3*x" {
		t.Fatalf("Term.String = %q", got)
	}
}
