package explore

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"repro/internal/protocol"
)

// graphSystem is a hand-built transition system for testing the SCC and
// fairness analysis directly.
type graphSystem struct {
	succ map[int][]int
	out  map[int]protocol.Output
}

var _ stepSystem[int] = graphSystem{}

func (g graphSystem) Key(s int) string { return strconv.Itoa(s) }

func (g graphSystem) Successors(s int) []int { return g.succ[s] }

func (g graphSystem) Output(s int) protocol.Output {
	if o, ok := g.out[s]; ok {
		return o
	}
	return protocol.OutputMixed
}

// exploreToy explores a toy system with the sequential reference and with
// the engine at every worker count, requires identical Results (or
// identical errors), and returns the reference's.
func exploreToy[S any](t *testing.T, g stepSystem[S], initial []S, opts Options) (*Result, error) {
	t.Helper()
	sys := keyedSystem(g)
	want, wantErr := Explore(sys, initial, opts)
	for _, w := range workerCounts {
		o := opts
		o.Workers = w
		got, err := ExploreParallel(sys, initial, o)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("workers=%d: error %v, reference %v", w, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertIdentical(t, want, got, fmt.Sprintf("workers=%d", w))
	}
	return want, wantErr
}

func TestExploreSingleBottomSCC(t *testing.T) {
	// 0 → 1 → 2 ⇄ 3, both 2 and 3 accepting.
	g := graphSystem{
		succ: map[int][]int{0: {1}, 1: {2}, 2: {3}, 3: {2}},
		out:  map[int]protocol.Output{2: protocol.OutputTrue, 3: protocol.OutputTrue},
	}
	res, err := exploreToy(t, g, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates != 4 {
		t.Fatalf("NumStates = %d, want 4", res.NumStates)
	}
	if res.NumBottomSCCs != 1 {
		t.Fatalf("NumBottomSCCs = %d, want 1", res.NumBottomSCCs)
	}
	if !res.StabilisesTo(true) {
		t.Fatalf("expected stabilisation to true, outcomes %v", res.Outcomes)
	}
	if res.Consensus() != protocol.OutputTrue {
		t.Fatalf("Consensus = %v", res.Consensus())
	}
}

func TestExploreTwoBottomSCCsDisagree(t *testing.T) {
	// 0 branches into two terminal self-loop states with opposite outputs.
	g := graphSystem{
		succ: map[int][]int{0: {1, 2}, 1: {1}, 2: {2}},
		out: map[int]protocol.Output{
			1: protocol.OutputTrue,
			2: protocol.OutputFalse,
		},
	}
	res, err := exploreToy(t, g, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBottomSCCs != 2 {
		t.Fatalf("NumBottomSCCs = %d, want 2", res.NumBottomSCCs)
	}
	if res.StabilisesTo(true) || res.StabilisesTo(false) {
		t.Fatal("disagreeing bottom SCCs must not stabilise uniformly")
	}
	if res.Consensus() != protocol.OutputMixed {
		t.Fatalf("Consensus = %v, want mixed", res.Consensus())
	}
}

func TestExploreMixedBottomSCCNeverStabilises(t *testing.T) {
	// A single bottom SCC oscillating between outputs true and false: a fair
	// run trapped there never stabilises.
	g := graphSystem{
		succ: map[int][]int{0: {1}, 1: {0}},
		out: map[int]protocol.Output{
			0: protocol.OutputTrue,
			1: protocol.OutputFalse,
		},
	}
	res, err := exploreToy(t, g, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBottomSCCs != 1 {
		t.Fatalf("NumBottomSCCs = %d, want 1", res.NumBottomSCCs)
	}
	if res.Outcomes[0] != protocol.OutputMixed {
		t.Fatalf("outcome = %v, want mixed", res.Outcomes[0])
	}
}

func TestExploreNonBottomOutputsIgnored(t *testing.T) {
	// The transient state 0 has output false, but the only bottom SCC is
	// all-true: every fair run still stabilises to true.
	g := graphSystem{
		succ: map[int][]int{0: {1}, 1: {1}},
		out: map[int]protocol.Output{
			0: protocol.OutputFalse,
			1: protocol.OutputTrue,
		},
	}
	res, err := exploreToy(t, g, []int{0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StabilisesTo(true) {
		t.Fatalf("expected true, outcomes %v", res.Outcomes)
	}
}

func TestExploreMultipleInitialStates(t *testing.T) {
	g := graphSystem{
		succ: map[int][]int{0: {2}, 1: {2}, 2: {2}},
		out:  map[int]protocol.Output{2: protocol.OutputFalse},
	}
	res, err := exploreToy(t, g, []int{0, 1, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumStates != 3 {
		t.Fatalf("NumStates = %d, want 3", res.NumStates)
	}
	if !res.StabilisesTo(false) {
		t.Fatalf("outcomes %v", res.Outcomes)
	}
}

func TestExploreStateLimit(t *testing.T) {
	// An infinite chain 0 → 1 → 2 → ... must hit the state limit.
	g := chainSystem{}
	_, err := exploreToy(t, g, []int{0}, Options{MaxStates: 100})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

type chainSystem struct{}

func (chainSystem) Key(s int) string           { return strconv.Itoa(s) }
func (chainSystem) Successors(s int) []int     { return []int{s + 1} }
func (chainSystem) Output(int) protocol.Output { return protocol.OutputFalse }

func TestExploreLargeCycleIterativeTarjan(t *testing.T) {
	// A long path ending in a cycle exercises the iterative Tarjan on a
	// graph deep enough to overflow a naive recursion.
	const depth = 200000
	g := ringAfterPath{depth: depth}
	res, err := exploreToy(t, g, []int{0}, Options{MaxStates: depth + 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBottomSCCs != 1 {
		t.Fatalf("NumBottomSCCs = %d, want 1", res.NumBottomSCCs)
	}
	if !res.StabilisesTo(true) {
		t.Fatalf("outcomes %v", res.Outcomes)
	}
}

type ringAfterPath struct{ depth int }

func (r ringAfterPath) Key(s int) string { return strconv.Itoa(s) }

func (r ringAfterPath) Successors(s int) []int {
	if s < r.depth {
		return []int{s + 1}
	}
	// Three-cycle at the end: depth → depth+1 → depth+2 → depth.
	if s < r.depth+2 {
		return []int{s + 1}
	}
	return []int{r.depth}
}

func (r ringAfterPath) Output(s int) protocol.Output {
	if s >= r.depth {
		return protocol.OutputTrue
	}
	return protocol.OutputFalse
}

// --- protocol-level checks ---

func buildMajority(t *testing.T) *protocol.Protocol {
	t.Helper()
	b := protocol.NewBuilder("majority")
	b.Input("X", "Y")
	b.Transition("X", "Y", "x", "x")
	b.Transition("X", "y", "X", "x")
	b.Transition("Y", "x", "Y", "y")
	b.Transition("x", "y", "x", "x") // tie cleanup: weak accept converts weak reject
	b.Accepting("X", "x")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckDecidesMajorityExact(t *testing.T) {
	p := buildMajority(t)
	pred := func(in []int64) bool { return in[0] >= in[1] }
	if err := CheckDecidesParallel(p, pred, 1, 6, 1, Options{}); err != nil {
		t.Fatalf("majority fails exact verification: %v", err)
	}
}

func TestCheckDecidesCatchesBrokenProtocol(t *testing.T) {
	// "Broken majority": missing the Y,x ↦ Y,y transition, so a rejecting
	// population can be converted to accepting. Must be caught.
	b := protocol.NewBuilder("broken")
	b.Input("X", "Y")
	b.Transition("X", "Y", "x", "x")
	b.Transition("X", "y", "X", "x")
	b.Accepting("X", "x")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pred := func(in []int64) bool { return in[0] >= in[1] }
	if err := CheckDecidesParallel(p, pred, 1, 5, 1, Options{}); err == nil {
		t.Fatal("exact checker passed a protocol that does not decide majority")
	}
}

func TestCheckDecidesRejectsZeroPopulation(t *testing.T) {
	p := buildMajority(t)
	pred := func(in []int64) bool { return true }
	if err := CheckDecidesParallel(p, pred, 0, 3, 1, Options{}); err == nil {
		t.Fatal("CheckDecidesParallel accepted minAgents = 0")
	}
}

func TestProtocolSystemOutputs(t *testing.T) {
	p := buildMajority(t)
	sys := NewProtocolSystem(p)
	c, _ := p.InitialConfig(1, 1)
	if sys.Output(c) != protocol.OutputMixed {
		t.Fatal("mixed configuration misreported")
	}
	if sys.Key(c) == "" {
		t.Fatal("empty key")
	}
	if _, ends := sys.AppendSuccessorKeys(c, nil, nil); len(ends) == 0 {
		t.Fatal("expected successors from X+Y")
	}
}
