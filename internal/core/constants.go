// Package core implements the paper's primary contribution (§5–§6 and
// Appendix A): a family of population programs of size O(n) deciding the
// threshold predicate x ≥ k for k = 2·Σᵢ Nᵢ ≥ 2^(2^(n-1)), where the level
// constants grow by repeated squaring: N₁ = 1, Nᵢ₊₁ = (Nᵢ + 1)².
//
// The package provides:
//
//   - the exact level constants Nᵢ and threshold k(n) (math/big);
//   - the register layout (four registers xᵢ, x̄ᵢ, yᵢ, ȳᵢ per level plus R);
//   - builders for the six procedures Main, AssertEmpty, AssertProper,
//     Zero, IncrPair and Large, emitted as a popprog.Program;
//   - the configuration classifiers of Appendix A (i-proper, weakly
//     i-proper, i-low, i-high, i-empty);
//   - the good-configuration synthesis used in the proof of Theorem 3.
package core

import (
	"fmt"
	"math/big"
)

var (
	bigOne = big.NewInt(1)
	bigTwo = big.NewInt(2)
)

// LevelConstants returns N₁, …, N_n with N₁ = 1 and Nᵢ₊₁ = (Nᵢ + 1)².
func LevelConstants(n int) ([]*big.Int, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need at least one level, got %d", n)
	}
	out := make([]*big.Int, n)
	out[0] = big.NewInt(1)
	for i := 1; i < n; i++ {
		v := new(big.Int).Add(out[i-1], bigOne)
		out[i] = v.Mul(v, v)
	}
	return out, nil
}

// Threshold returns k(n) = 2·Σᵢ Nᵢ, the threshold decided by the n-level
// construction (Theorem 3 / proof in A.4).
func Threshold(n int) (*big.Int, error) {
	ns, err := LevelConstants(n)
	if err != nil {
		return nil, err
	}
	sum := new(big.Int)
	for _, v := range ns {
		sum.Add(sum, v)
	}
	return sum.Mul(sum, bigTwo), nil
}

// VerifyDoubleExp checks k(n) ≥ 2^(2^(n-1)) without materialising the
// bound: k ≥ 2^e iff k's bit length exceeds e. N_n alone satisfies
// N_n ≥ 2^(2^(n-1)) for n ≥ 1, which the squaring recurrence makes easy to
// see: bitlen(Nᵢ₊₁) ≥ 2·bitlen(Nᵢ) − 1 and the +1 keeps the base ≥ 2.
func VerifyDoubleExp(n int) (bool, error) {
	k, err := Threshold(n)
	if err != nil {
		return false, err
	}
	exp := new(big.Int).Lsh(bigOne, uint(n-1)) // 2^(n-1)
	if !exp.IsInt64() {
		return false, fmt.Errorf("core: exponent 2^(%d-1) out of range", n)
	}
	// k ≥ 2^e ⟺ bitlen(k) ≥ e+1 (with equality cases handled below).
	e := exp.Int64()
	bitlen := int64(k.BitLen())
	if bitlen > e+1 {
		return true, nil
	}
	if bitlen < e+1 {
		return false, nil
	}
	// bitlen == e+1: k ≥ 2^e iff k's top bit is at position e, which it is.
	return true, nil
}
