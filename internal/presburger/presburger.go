// Package presburger implements the linear atoms of quantifier-free
// Presburger formulas with coefficients written in binary — the encoding
// the paper uses to define the space complexity of predicates (§1):
// "Predicates are usually encoded as quantifier-free Presburger formulae
// with coefficients in binary. For example, the predicates φ_n(x) ⟺ x ≥ 2^n
// have length |φ_n| ∈ Θ(n)."
//
// The package provides atoms over big-integer coefficients (thresholds here
// are double exponential, so fixed-width integers do not suffice), the
// threshold predicate τ_k(x) ⟺ x ≥ k, and the size measure |φ| that Table 1
// reports against.
package presburger

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
)

// Comparison is the relational operator of an atom.
type Comparison int

// Comparison operators.
const (
	Less Comparison = iota + 1
	LessEq
	Equal
	NotEqual
	GreaterEq
	Greater
)

// String implements fmt.Stringer.
func (c Comparison) String() string {
	switch c {
	case Less:
		return "<"
	case LessEq:
		return "<="
	case Equal:
		return "="
	case NotEqual:
		return "!="
	case GreaterEq:
		return ">="
	case Greater:
		return ">"
	default:
		return fmt.Sprintf("Comparison(%d)", int(c))
	}
}

// Term is a linear combination Σ aᵢ·xᵢ of variables with integer
// coefficients.
type Term struct {
	coeffs map[string]*big.Int
}

// NewTerm returns the zero term.
func NewTerm() *Term { return &Term{coeffs: make(map[string]*big.Int)} }

// Var returns the term 1·name.
func Var(name string) *Term {
	t := NewTerm()
	t.Add(name, big.NewInt(1))
	return t
}

// Add adds coeff·name to the term.
func (t *Term) Add(name string, coeff *big.Int) *Term {
	cur, ok := t.coeffs[name]
	if !ok {
		cur = new(big.Int)
		t.coeffs[name] = cur
	}
	cur.Add(cur, coeff)
	if cur.Sign() == 0 {
		delete(t.coeffs, name)
	}
	return t
}

// Variables returns the variables with non-zero coefficient, sorted.
func (t *Term) Variables() []string {
	out := make([]string, 0, len(t.coeffs))
	for v := range t.coeffs {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Coeff returns the coefficient of the variable (zero if absent).
func (t *Term) Coeff(name string) *big.Int {
	if c, ok := t.coeffs[name]; ok {
		return new(big.Int).Set(c)
	}
	return new(big.Int)
}

// String renders the term, e.g. "2*x + y - 3*z".
func (t *Term) String() string {
	vars := t.Variables()
	if len(vars) == 0 {
		return "0"
	}
	var sb strings.Builder
	for i, v := range vars {
		c := t.coeffs[v]
		neg := c.Sign() < 0
		abs := new(big.Int).Abs(c)
		switch {
		case i == 0 && neg:
			sb.WriteString("-")
		case i > 0 && neg:
			sb.WriteString(" - ")
		case i > 0:
			sb.WriteString(" + ")
		}
		if abs.Cmp(big.NewInt(1)) != 0 {
			sb.WriteString(abs.String())
			sb.WriteString("*")
		}
		sb.WriteString(v)
	}
	return sb.String()
}

// constSize is the size measure of an integer constant: its binary length
// ⌈log₂(|c|+1)⌉, minimum 1. Each variable occurrence and each operator
// costs 1, so |x ≥ k| = Θ(log k), matching §1.
func constSize(c *big.Int) int64 {
	bits := int64(new(big.Int).Abs(c).BitLen())
	if bits == 0 {
		bits = 1
	}
	return bits
}

// Atom is a linear constraint Term ⋈ Const.
type Atom struct {
	T     *Term
	Op    Comparison
	Const *big.Int
}

// NewAtom builds a linear atom.
func NewAtom(t *Term, op Comparison, c *big.Int) *Atom {
	return &Atom{T: t, Op: op, Const: new(big.Int).Set(c)}
}

// Size returns the binary-encoding size |φ| of the atom (see constSize).
func (a *Atom) Size() int64 {
	size := constSize(a.Const) + 1 // constant + operator
	for _, v := range a.T.Variables() {
		size += 1 + constSize(a.T.Coeff(v)) // variable + coefficient
	}
	return size
}

// Threshold returns the threshold predicate τ_k(x) ⟺ x ≥ k, the family
// whose state complexity the whole paper is about.
func Threshold(varName string, k *big.Int) *Atom {
	return NewAtom(Var(varName), GreaterEq, k)
}
