// Package target is the registry of the repository's named systems under
// test: the baseline protocols and the paper's population programs that
// every CLI -target flag and ppserved's "target" field accept.
//
//	majority | unary:k | binary:j | remainder:m | figure1 | czerner:n | equality:n
//
// Parse checks a name and its bounded parameter without constructing
// anything, so request paths can call it; Build does the construction.
package target

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// Kind selects protocol targets, program targets, or both.
type Kind uint8

const (
	// Protocols are the baseline population protocols.
	Protocols Kind = 1 << iota
	// Programs are the population programs (Figure 1 and the §6
	// constructions), which need the §7 conversion to become protocols.
	Programs
	// All is every target.
	All = Protocols | Programs
)

// Parameter bounds, one per parameterised family. Each keeps Build under
// half a second on a 2-core x86-64 box: unary:1024 builds 524,800
// transitions in 0.3 s (Θ(k²), so 2048 takes 1.2 s), remainder:1024 builds
// m² + 2m = 1,050,624 in 0.4 s, and czerner:22 squares its big-int
// constants up to a 2.46M-bit threshold in 70 ms (each level doubles the
// bits). binary:j stops at 62 so the threshold 2^j fits an int64.
const (
	maxUnary     = 1024
	maxBinary    = 62
	maxRemainder = 1024
	// MaxLevels bounds the construction level n of czerner:n and
	// equality:n, and ppstate's -n.
	MaxLevels = 22
)

// Built is a constructed target: exactly one of Protocol and Program is set.
type Built struct {
	Protocol *protocol.Protocol
	Program  *popprog.Program
	// Construction is the §6 construction behind czerner:n and equality:n;
	// nil for every other target.
	Construction *core.Construction
	// Predicate is the predicate the target decides: over the protocol's
	// input counts, or over the single total [m] of a program.
	Predicate protocol.Predicate
}

// family is one registered target family.
type family struct {
	name string
	// param names the parameter in usage text ("k"); empty when the family
	// takes none.
	param    string
	min, max int64
	kind     Kind
	build    func(param int64) (*Built, error)
}

var families = []family{
	{name: "majority", kind: Protocols, build: func(int64) (*Built, error) {
		p, err := baseline.Majority()
		return protocolBuilt(p, err, baseline.MajorityPredicate)
	}},
	{name: "unary", param: "k", min: 1, max: maxUnary, kind: Protocols, build: func(k int64) (*Built, error) {
		p, err := baseline.UnaryThreshold(k)
		return protocolBuilt(p, err, baseline.ThresholdPredicate(k))
	}},
	{name: "binary", param: "j", min: 0, max: maxBinary, kind: Protocols, build: func(j int64) (*Built, error) {
		p, err := baseline.BinaryThreshold(int(j))
		return protocolBuilt(p, err, baseline.ThresholdPredicate(1<<j))
	}},
	{name: "remainder", param: "m", min: 1, max: maxRemainder, kind: Protocols, build: func(m int64) (*Built, error) {
		p, err := baseline.Remainder(m, 0)
		return protocolBuilt(p, err, baseline.RemainderPredicate(m, 0))
	}},
	{name: "figure1", kind: Programs, build: func(int64) (*Built, error) {
		return &Built{Program: popprog.Figure1Program(),
			Predicate: func(in []int64) bool { return in[0] >= 4 && in[0] < 7 }}, nil
	}},
	{name: "czerner", param: "n", min: 1, max: MaxLevels, kind: Programs, build: func(n int64) (*Built, error) {
		return constructionBuilt(core.New(int(n)))
	}},
	{name: "equality", param: "n", min: 1, max: MaxLevels, kind: Programs, build: func(n int64) (*Built, error) {
		return constructionBuilt(core.NewEquality(int(n)))
	}},
}

// protocolBuilt pairs a baseline constructor's result with its predicate.
func protocolBuilt(p *protocol.Protocol, err error, pred protocol.Predicate) (*Built, error) {
	if err != nil {
		return nil, err
	}
	return &Built{Protocol: p, Predicate: pred}, nil
}

// constructionBuilt wraps a §6 construction: x ≥ K, or x = K for the
// equality variant. A K beyond int64 exceeds every representable total.
func constructionBuilt(c *core.Construction, err error) (*Built, error) {
	if err != nil {
		return nil, err
	}
	k, equality := c.K, c.IsEquality()
	pred := func(in []int64) bool {
		cmp := big.NewInt(in[0]).Cmp(k)
		return cmp == 0 || (cmp > 0 && !equality)
	}
	return &Built{Program: c.Program, Construction: c, Predicate: pred}, nil
}

// Target is a parsed, bounds-checked target name.
type Target struct {
	fam   *family
	param int64 // 0 for families without a parameter
}

// Kind reports whether t is a protocol or a program target.
func (t Target) Kind() Kind { return t.fam.kind }

// Build constructs the target.
func (t Target) Build() (*Built, error) { return t.fam.build(t.param) }

// Parse checks a target name of any kind; see ParseKind.
func Parse(name string) (Target, error) { return ParseKind(name, All) }

// ParseKind checks name ("family" or "family:param") against the registry,
// restricted to the families of kind k, and bounds its parameter. It
// constructs nothing.
func ParseKind(name string, k Kind) (Target, error) {
	famName, paramStr, hasParam := strings.Cut(name, ":")
	var fam *family
	for i := range families {
		if families[i].name == famName {
			fam = &families[i]
			break
		}
	}
	switch {
	case fam == nil:
		return Target{}, fmt.Errorf("unknown target %q (want %s)", name, Usage(k))
	case fam.kind&k == 0:
		return Target{}, fmt.Errorf("target %q is not a %s (want %s)", name, kindNoun(k), Usage(k))
	case fam.param == "" && hasParam:
		return Target{}, fmt.Errorf("target %q: %s takes no parameter", name, famName)
	case fam.param == "":
		return Target{fam: fam}, nil
	case !hasParam:
		return Target{}, fmt.Errorf("target %q needs a parameter, e.g. %s:%d", name, famName, fam.min+1)
	}
	v, err := strconv.ParseInt(paramStr, 10, 64)
	if err != nil {
		return Target{}, fmt.Errorf("target %q: parameter %q is not an integer", name, paramStr)
	}
	if v < fam.min || v > fam.max {
		return Target{}, fmt.Errorf("target %q: %s must be in [%d, %d], got %d",
			name, fam.param, fam.min, fam.max, v)
	}
	return Target{fam: fam, param: v}, nil
}

func kindNoun(k Kind) string {
	if k == Programs {
		return "population program"
	}
	return "protocol"
}

// Usage lists the target syntaxes of kind k for help and error text, e.g.
// "figure1 | czerner:n | equality:n".
func Usage(k Kind) string {
	var names []string
	for _, f := range families {
		switch {
		case f.kind&k == 0:
		case f.param == "":
			names = append(names, f.name)
		default:
			names = append(names, f.name+":"+f.param)
		}
	}
	return strings.Join(names, " | ")
}

// Help is Usage followed by each parameterised family's accepted range,
// for flag help text.
func Help(k Kind) string {
	var bounds []string
	for _, f := range families {
		if f.kind&k != 0 && f.param != "" {
			bounds = append(bounds, fmt.Sprintf("%s:%s in [%d, %d]", f.name, f.param, f.min, f.max))
		}
	}
	return Usage(k) + " (" + strings.Join(bounds, ", ") + ")"
}
