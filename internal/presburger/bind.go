package presburger

import (
	"fmt"
	"math/big"
)

// BindPredicate turns a formula into a predicate over an ordered list of
// input variables: the i-th input count is bound to varOrder[i]. It is the
// bridge between the predicate encoding of §1 (which defines |φ| and hence
// space complexity) and the executable protocol checkers: a protocol p
// together with BindPredicate(φ, vars) can be handed to
// explore.CheckDecidesParallel to verify "p decides φ" in the paper's sense.
//
// Every free variable of φ must appear in varOrder; extra entries in
// varOrder are allowed (inputs the formula ignores).
func BindPredicate(f Formula, varOrder []string) (func(in []int64) bool, error) {
	present := make(map[string]bool, len(varOrder))
	for _, v := range varOrder {
		if present[v] {
			return nil, fmt.Errorf("presburger: duplicate variable %q in binding", v)
		}
		present[v] = true
	}
	for _, v := range Variables(f) {
		if !present[v] {
			return nil, fmt.Errorf("presburger: free variable %q not bound", v)
		}
	}
	order := append([]string(nil), varOrder...)
	return func(in []int64) bool {
		valuation := make(map[string]*big.Int, len(order))
		for i, v := range order {
			if i < len(in) {
				valuation[v] = big.NewInt(in[i])
			} else {
				valuation[v] = big.NewInt(0)
			}
		}
		return f.Eval(valuation)
	}, nil
}

// MustBindPredicate is BindPredicate for statically known formulas; it
// panics on error.
func MustBindPredicate(f Formula, varOrder []string) func(in []int64) bool {
	pred, err := BindPredicate(f, varOrder)
	if err != nil {
		panic(err)
	}
	return pred
}
