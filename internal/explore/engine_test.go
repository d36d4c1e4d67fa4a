package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// workerCounts are the engine configurations every differential test runs:
// the inline path (1), a split frontier (2), and heavy oversubscription (8).
var workerCounts = []int{1, 2, 8}

// randomProtocol builds a protocol with a random transition table. Most
// draws are not well-formed predicates deciders — which is the point: the
// differential harness must agree on arbitrary reachable graphs, including
// ones with mixed and disagreeing bottom SCCs. One draw in four has 64–200
// states; its initiators and responders are drawn from the states agents
// can already reach from q0, so agents spread over a wide universe and
// configuration keys carry long runs of empty states.
func randomProtocol(t *testing.T, rng *rand.Rand) *protocol.Protocol {
	t.Helper()
	k, wide := 3+rng.Intn(3), rng.Intn(4) == 0
	if wide {
		k = 64 + rng.Intn(137)
	}
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("q%d", i)
	}
	b := protocol.NewBuilder("random")
	b.Input(names[0], names[1])
	for _, n := range names {
		b.State(n)
	}
	reach := []int{0}
	n := 2 + rng.Intn(7)
	if wide {
		n = 2 + rng.Intn(3) // more would flood the state limit
	}
	for i := 0; i < n; i++ {
		if !wide {
			b.Transition(names[rng.Intn(k)], names[rng.Intn(k)],
				names[rng.Intn(k)], names[rng.Intn(k)])
			continue
		}
		q2, r2 := rng.Intn(k), rng.Intn(k)
		b.Transition(names[reach[rng.Intn(len(reach))]], names[reach[rng.Intn(len(reach))]],
			names[q2], names[r2])
		reach = append(reach, q2, r2)
	}
	var accepting []string
	for _, n := range names {
		if rng.Intn(2) == 0 {
			accepting = append(accepting, n)
		}
	}
	b.Accepting(accepting...)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func assertIdentical(t *testing.T, seq, par *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("%s: parallel result diverges from sequential:\nseq %+v\npar %+v", label, seq, par)
	}
}

// TestParallelMatchesSequentialRandomProtocols is the protocol half of the
// differential harness: on randomized protocols, the engine must return
// bit-identical Results — NumStates, bottom-SCC count, outcome and witness
// multisets, even their order — for every worker count, all in RAM and
// under a 4 KiB budget that spills. Wide draws start with 64–71 agents on
// one state, so counts need multi-byte key tokens; when one exceeds the
// state limit, every engine must refuse with the same error.
func TestParallelMatchesSequentialRandomProtocols(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		p := randomProtocol(t, rng)
		x, y := 1+rng.Int63n(4), rng.Int63n(4)
		opts := Options{MaxStates: 100_000}
		if len(p.States) >= 64 {
			x += 63 + rng.Int63n(4)
			opts.MaxStates = 3_000
		}
		c, err := p.InitialConfig(x, y)
		if err != nil {
			t.Fatal(err)
		}
		assertEnginesAgree(t, NewProtocolSystem(p), c, opts,
			fmt.Sprintf("trial %d (|Q|=%d x=%d y=%d)", trial, len(p.States), x, y))
	}
}

// assertEnginesAgree explores c with the sequential reference and with the
// engine at every worker count, all in RAM and under a 4 KiB MemBudget, and
// requires bit-identical Results, or identical errors. It returns the
// reference Result (nil when the exploration failed).
func assertEnginesAgree(t *testing.T, sys ProtocolSystem, c *multiset.Multiset, opts Options, label string) *Result {
	t.Helper()
	seq, seqErr := Explore[*multiset.Multiset](sys, []*multiset.Multiset{c}, opts)
	if seqErr != nil && !errors.Is(seqErr, ErrStateLimit) {
		t.Fatalf("%s: sequential: %v", label, seqErr)
	}
	for _, w := range workerCounts {
		for _, budget := range []int64{0, 4 << 10} {
			o := opts
			o.Workers, o.MemBudget, o.SpillDir = w, budget, t.TempDir()
			par, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, o)
			where := fmt.Sprintf("%s workers=%d budget=%d", label, w, budget)
			if seqErr != nil {
				if err == nil || err.Error() != seqErr.Error() {
					t.Fatalf("%s: error %v, sequential %v", where, err, seqErr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			assertIdentical(t, seq, par, where)
		}
	}
	return seq
}

// TestParallelMatchesSequentialConverted runs the differential harness on
// protocols converted from population programs by the shrink pipeline
// (convert.Optimize), whose hundreds of states make run-length keys differ
// most from the dense Key: figure1 leaderless at m = |F|, and czerner n=1
// in the leader model at x = 1. Reachable-state counts are pinned too.
func TestParallelMatchesSequentialConverted(t *testing.T) {
	for _, tc := range []struct {
		name   string
		leader bool
		extra  int64
		states int
	}{
		{"figure1", false, 0, 1_124},
		{"czerner:1", true, 1, 1_853},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, c := convertedInstance(t, tc.name, tc.leader, tc.extra)
			seq := assertEnginesAgree(t, NewProtocolSystem(p), c, Options{}, tc.name)
			if seq.NumStates != tc.states {
				t.Fatalf("%s: %d reachable states, want %d", tc.name, seq.NumStates, tc.states)
			}
		})
	}
}

// convertedInstance converts the named program ("figure1" or "czerner:1")
// with convert.Optimize and returns the protocol with one initial
// configuration: leaderless with |F| + extra agents, or the leader model
// with extra input agents.
func convertedInstance(tb testing.TB, name string, leader bool, extra int64) (*protocol.Protocol, *multiset.Multiset) {
	tb.Helper()
	prog := popprog.Figure1Program()
	if name == "czerner:1" {
		cons, err := core.New(1)
		if err != nil {
			tb.Fatal(err)
		}
		prog = cons.Program
	}
	m, err := compile.Compile(prog)
	if err != nil {
		tb.Fatal(err)
	}
	res, _, err := convert.Optimize(m)
	if err != nil {
		tb.Fatal(err)
	}
	var c *multiset.Multiset
	if leader {
		c, err = res.LeaderConfig(extra, 0)
	} else {
		c, err = res.Protocol.InitialConfig(int64(res.NumPointers) + extra)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return res.Protocol, c
}

// machinePlacements returns the initial configurations of every register
// placement of total agents.
func machinePlacements(tb testing.TB, machine *popmachine.Machine, total int64) []*popmachine.Config {
	tb.Helper()
	var initial []*popmachine.Config
	multiset.Enumerate(len(machine.Registers), total, func(regs *multiset.Multiset) {
		cfg, err := machine.InitialConfig(regs)
		if err != nil {
			tb.Fatal(err)
		}
		initial = append(initial, cfg)
	})
	return initial
}

// TestParallelMatchesSequentialMachine is the population-machine half: the
// compiled Figure 1 machine explored from randomized register placements,
// including multi-initial-state explorations (the union graph over all
// placements of one total), all-RAM and, since machines run on the codec
// path, under a budget that spills the key log.
func TestParallelMatchesSequentialMachine(t *testing.T) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	rng := rand.New(rand.NewSource(11))
	opts := Options{MaxStates: 500_000}
	for trial := 0; trial < 10; trial++ {
		regs := multiset.New(len(machine.Registers))
		for total := 1 + rng.Int63n(4); total > 0; total-- {
			regs.Add(rng.Intn(regs.Len()), 1)
		}
		cfg, err := machine.InitialConfig(regs)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := Explore[*popmachine.Config](sys, []*popmachine.Config{cfg}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workerCounts {
			opts.Workers = w
			par, err := ExploreParallel[*popmachine.Config](sys, []*popmachine.Config{cfg}, opts)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			assertIdentical(t, seq, par, fmt.Sprintf("trial %d workers=%d", trial, w))
		}
	}

	// Union exploration from every placement of total 4, with a duplicated
	// initial state to exercise the dedup path.
	initial := machinePlacements(t, machine, 4)
	initial = append(initial, initial[0].Clone())
	seq, err := Explore[*popmachine.Config](sys, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		opts.Workers = w
		par, err := ExploreParallel[*popmachine.Config](sys, initial, opts)
		if err != nil {
			t.Fatalf("union workers=%d: %v", w, err)
		}
		assertIdentical(t, seq, par, fmt.Sprintf("union workers=%d", w))
	}

	// Spilled: every placement of total 5 (6,340 states with 14-byte keys,
	// about 95 KB of key records) under an 8 KiB budget. The keys seal a
	// 64 KiB segment (the smallest), which the key log's 4 KiB share
	// spills.
	const budget = int64(8 << 10)
	initial = machinePlacements(t, machine, 5)
	seq, err = Explore[*popmachine.Config](sys, initial, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		met := obs.Enable()
		spilled, err := ExploreParallel[*popmachine.Config](sys, initial,
			Options{MaxStates: opts.MaxStates, Workers: w, MemBudget: budget, SpillDir: t.TempDir()})
		em := met.Explore()
		obs.Disable()
		if err != nil {
			t.Fatalf("spilled workers=%d: %v", w, err)
		}
		assertIdentical(t, seq, spilled, fmt.Sprintf("spilled workers=%d", w))
		if em.SpillSegments.Load() == 0 || em.SpillReadBytes.Load() == 0 {
			t.Fatalf("workers=%d: budget %d spilled %d key-log segments and read back %d bytes",
				w, budget, em.SpillSegments.Load(), em.SpillReadBytes.Load())
		}
	}
}

// TestParallelStateLimitIdentical pins the exactness of ErrStateLimit: the
// engine must refuse at the same canonical point as the sequential BFS, for
// every worker count, with the same error.
func TestParallelStateLimitIdentical(t *testing.T) {
	g := keyedSystem[int](chainSystem{})
	_, seqErr := Explore(g, []int{0}, Options{MaxStates: 100})
	if !errors.Is(seqErr, ErrStateLimit) {
		t.Fatalf("sequential err = %v", seqErr)
	}
	for _, w := range workerCounts {
		_, parErr := ExploreParallel(g, []int{0}, Options{MaxStates: 100, Workers: w})
		if !errors.Is(parErr, ErrStateLimit) {
			t.Fatalf("workers=%d err = %v, want ErrStateLimit", w, parErr)
		}
		if parErr.Error() != seqErr.Error() {
			t.Fatalf("workers=%d error %q, sequential %q", w, parErr, seqErr)
		}
	}
}

// TestMaxStatesClampedToIDRange: engine ids, interner entries and CSR
// targets are int32, so a MaxStates above math.MaxInt32 must mean
// math.MaxInt32 instead of letting the next id wrap around.
func TestMaxStatesClampedToIDRange(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 2_000_000},
		{-5, 2_000_000},
		{100, 100},
		{math.MaxInt32, math.MaxInt32},
		{math.MaxInt32 + 1, math.MaxInt32},
		{math.MaxInt, math.MaxInt32},
	} {
		if got := (Options{MaxStates: tc.in}).maxStates(); got != tc.want {
			t.Errorf("MaxStates %d: limit %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestExploreContextCancelled verifies pre-cancelled contexts abort before
// any expansion with the context's error rather than ErrStateLimit.
func TestExploreContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExploreContext(ctx, keyedSystem[int](chainSystem{}), []int{0}, Options{MaxStates: 1 << 30})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelExploreLargeCycle reruns the deep-graph Tarjan exercise
// through the engine with a split frontier.
func TestParallelExploreLargeCycle(t *testing.T) {
	const depth = 200000
	g := keyedSystem[int](ringAfterPath{depth: depth})
	res, err := ExploreParallel(g, []int{0}, Options{MaxStates: depth + 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBottomSCCs != 1 || !res.StabilisesTo(true) {
		t.Fatalf("bottom SCCs %d, outcomes %v", res.NumBottomSCCs, res.Outcomes)
	}
}

// wideSystem fans out to `width` children per level for `depth` levels, then
// funnels everything into one absorbing state: a frontier wide enough to
// split across workers.
type wideSystem struct{ width, depth int }

func (w wideSystem) Key(s [2]int) string { return fmt.Sprintf("%d/%d", s[0], s[1]) }

func (w wideSystem) Successors(s [2]int) [][2]int {
	if s[0] >= w.depth {
		return [][2]int{{w.depth, 0}}
	}
	out := make([][2]int, w.width)
	for i := range out {
		out[i] = [2]int{s[0] + 1, (s[1]*w.width + i) % 9973}
	}
	return out
}

func (w wideSystem) Output(s [2]int) protocol.Output { return protocol.OutputTrue }

// TestParallelWideFrontier forces multi-chunk expansion passes (frontier ≫
// minExpandChunk) and checks bit-identity there too.
func TestParallelWideFrontier(t *testing.T) {
	g := keyedSystem[[2]int](wideSystem{width: 40, depth: 4})
	opts := Options{MaxStates: 200_000}
	seq, err := Explore(g, [][2]int{{0, 0}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seq.NumStates < 2*minExpandChunk {
		t.Fatalf("test graph too small to split: %d states", seq.NumStates)
	}
	for _, w := range workerCounts {
		opts.Workers = w
		par, err := ExploreParallel(g, [][2]int{{0, 0}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, seq, par, fmt.Sprintf("wide workers=%d", w))
	}
}
