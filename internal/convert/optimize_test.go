package convert

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
)

func optimizeProgram(t *testing.T, prog *popprog.Program) (*Result, *OptReport) {
	t.Helper()
	m, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, report, err := Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	return res, report
}

// checkDecidesThreshold exhaustively model-checks that p decides
// m ≥ |F| + k on populations |F| + extra for extra ∈ extras.
func checkDecidesThreshold(t *testing.T, p *protocol.Protocol, f, k int64, extras []int64) {
	t.Helper()
	sys := explore.NewProtocolSystem(p)
	for _, extra := range extras {
		m := f + extra
		want := extra >= k
		c, err := p.InitialConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := explore.ExploreParallel[*multiset.Multiset](sys,
			[]*multiset.Multiset{c}, explore.Options{MaxStates: 4_000_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !checked.StabilisesTo(want) {
			t.Fatalf("m=%d (|F|=%d): outcomes %v, want all %v (%d states)",
				m, f, checked.Outcomes, want, checked.NumStates)
		}
	}
}

// TestOptimizedGeOneStillDecides is the pipeline's end-to-end soundness
// gate on the x ≥ 1 program: the fully optimized protocol must decide
// exactly the plain conversion's predicate φ'(m) ⟺ m ≥ |F| ∧ (m−|F|) ≥ 1,
// verified exhaustively, while being strictly smaller than both the plain
// and the merely support-closure-reduced protocol.
func TestOptimizedGeOneStillDecides(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	res, report := optimizeProgram(t, geOneProgram())
	plain := convertProgram(t, geOneProgram())
	reduced, _, err := protocol.Reduce(plain.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPointers != plain.NumPointers {
		t.Fatalf("optimization changed |F|: %d → %d (the predicate offset!)",
			plain.NumPointers, res.NumPointers)
	}
	if got, base := res.Protocol.NumStates(), reduced.NumStates(); got >= base {
		t.Fatalf("optimized |Q| = %d not below reduced baseline %d", got, base)
	}
	if got, base := len(res.Protocol.Transitions), len(reduced.Transitions); got >= base {
		t.Fatalf("optimized |T| = %d not below reduced baseline %d", got, base)
	}
	checkDecidesThreshold(t, res.Protocol, int64(res.NumPointers), 1, []int64{0, 1, 2})
	t.Logf("ge1: |Q| %d → %d (plain %d), |T| %d → %d; report: %+v",
		reduced.NumStates(), res.Protocol.NumStates(), plain.Protocol.NumStates(),
		len(reduced.Transitions), len(res.Protocol.Transitions), report)
}

// TestOptimizedGeTwoStillDecides covers calls, boolean procedures, swaps
// and drain loops: the optimized ge2 protocol must still decide
// m ≥ |F| + 2 — the reject side (extra 0, 1) exhaustively, the accept
// side (extra = 2, whose state space is beyond exhaustive reach) by a
// transition-fair scheduler run like the plain geTwo tests.
func TestOptimizedGeTwoStillDecides(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	res, _ := optimizeProgram(t, geTwoProgram())
	p := res.Protocol
	checkDecidesThreshold(t, p, int64(res.NumPointers), 2, []int64{0, 1})

	cfg, err := p.InitialConfig(int64(res.NumPointers) + 2)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.NewTransitionFair(p, sched.NewRand(17))
	var lastNonTrue, step int64
	terminal := false
	for step = 0; step < 600_000; step++ {
		if !s.Step(cfg) {
			// With silent transitions pruned, a stable consensus can
			// become terminal: nothing is enabled that changes anything.
			terminal = true
			break
		}
		if p.OutputOf(cfg) != protocol.OutputTrue {
			lastNonTrue = step
		}
	}
	if p.OutputOf(cfg) != protocol.OutputTrue {
		t.Fatalf("accept side output %v after %d steps", p.OutputOf(cfg), step)
	}
	if !terminal && step-lastNonTrue < 100_000 {
		t.Fatalf("accept side did not settle: last non-true output at step %d of %d",
			lastNonTrue, step)
	}
}

// TestOptimizedTheorem1EndToEnd runs the optimized n = 1 headline
// construction (§5–6) as a live protocol under the transition-fair
// scheduler: it must elect pointers, execute through restarts, and
// stabilise to accept on m − |F| = 3 ≥ k = 2, exactly like the
// unoptimized run in TestTheorem1ProtocolEndToEnd.
func TestOptimizedTheorem1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates ~10⁶ scheduler steps")
	}
	c, err := core.New(1)
	if err != nil {
		t.Fatal(err)
	}
	machine, err := compile.Compile(c.Program)
	if err != nil {
		t.Fatal(err)
	}
	res, report, err := Optimize(machine)
	if err != nil {
		t.Fatal(err)
	}
	if report.After.Instrs >= report.Before.Instrs {
		t.Fatalf("no instruction shrink on czerner n=1: L %d → %d",
			report.Before.Instrs, report.After.Instrs)
	}
	p := res.Protocol
	m := int64(res.NumPointers) + 3
	cfg, err := p.InitialConfig(m)
	if err != nil {
		t.Fatal(err)
	}
	s := sched.NewTransitionFair(p, sched.NewRand(3))
	const (
		budget    = 2_500_000
		quietTail = 250_000
	)
	var lastNonTrue, step int64
	for step = 0; step < budget; step++ {
		if !s.Step(cfg) {
			break
		}
		if p.OutputOf(cfg) != protocol.OutputTrue {
			lastNonTrue = step
		}
		if step-lastNonTrue > quietTail {
			break
		}
	}
	if p.OutputOf(cfg) != protocol.OutputTrue {
		t.Fatalf("optimized protocol did not stabilise to true after %d steps (output %v)",
			step, p.OutputOf(cfg))
	}
	t.Logf("czerner n=1 optimized: |Q| %d → %d, |T| = %d, stabilised at step %d",
		report.Before.States, report.After.States, report.After.Transitions, lastNonTrue+1)
}

// TestOptimizeReportAccounting checks the report's internal consistency
// on ge1: Prop. 16 bounds hold on both sides, the pass sums reconcile
// with the final counts, and MaterializeBaseline fills in the plain
// conversion's transition count.
func TestOptimizeReportAccounting(t *testing.T) {
	m, err := compile.Compile(geOneProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, report, err := Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	if report.Pipeline != PipelineTag {
		t.Fatalf("pipeline tag %q, want %q", report.Pipeline, PipelineTag)
	}
	for _, side := range []struct {
		name string
		b    Budget
	}{{"before", report.Before}, {"after", report.After}} {
		if side.b.CoreStates > side.b.Prop16Bound {
			t.Fatalf("%s: |Q*| = %d exceeds Prop. 16 bound %d",
				side.name, side.b.CoreStates, side.b.Prop16Bound)
		}
	}
	if report.Before.Transitions != -1 {
		t.Fatalf("baseline transitions materialised unasked: %d", report.Before.Transitions)
	}
	if report.After.States != res.Protocol.NumStates() {
		t.Fatalf("After.States %d != protocol states %d",
			report.After.States, res.Protocol.NumStates())
	}
	if report.After.Transitions != len(res.Protocol.Transitions) {
		t.Fatalf("After.Transitions %d != protocol transitions %d",
			report.After.Transitions, len(res.Protocol.Transitions))
	}
	if report.StatesRemoved() <= 0 {
		t.Fatalf("no states removed: before %d, after %d",
			report.Before.States, report.After.States)
	}
	var mremoved int
	for _, s := range report.MachinePasses {
		mremoved += s.Removed
	}
	if mremoved == 0 {
		t.Fatal("machine passes removed nothing on ge1")
	}
	if len(report.ProtocolPasses) != 3 {
		t.Fatalf("want 3 protocol passes, got %v", report.ProtocolPasses)
	}
	if err := report.MaterializeBaseline(m); err != nil {
		t.Fatal(err)
	}
	if report.Before.Transitions <= report.After.Transitions {
		t.Fatalf("baseline |T| = %d not above optimized %d",
			report.Before.Transitions, report.After.Transitions)
	}
	// The report must round-trip through JSON (it is served by ppstate
	// -opt-report and the ppserved API).
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var back OptReport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*report, back) {
		t.Fatal("OptReport does not survive a JSON round trip")
	}
}

// TestOptimizeDeterministic pins bit-identical output: two pipeline runs
// must produce protocols with equal fingerprints and identical reports.
func TestOptimizeDeterministic(t *testing.T) {
	m, err := compile.Compile(geTwoProgram())
	if err != nil {
		t.Fatal(err)
	}
	res1, rep1, err := Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	res2, rep2, err := Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	if f1, f2 := res1.Protocol.Fingerprint(), res2.Protocol.Fingerprint(); f1 != f2 {
		t.Fatalf("fingerprints diverge: %s vs %s", f1, f2)
	}
	if !reflect.DeepEqual(rep1, rep2) {
		t.Fatalf("reports diverge:\n%+v\n%+v", rep1, rep2)
	}
	if !reflect.DeepEqual(res1.Families(), res2.Families()) {
		t.Fatal("family tables diverge")
	}
}

// TestOptimizeStatesMatchesFull checks the cheap counting path agrees
// with the full pipeline on everything it reports: same shrunk machine
// budgets, same |Q*|.
func TestOptimizeStatesMatchesFull(t *testing.T) {
	m, err := compile.Compile(geTwoProgram())
	if err != nil {
		t.Fatal(err)
	}
	res, full, err := Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	opt, cheap, err := OptimizeStates(m)
	if err != nil {
		t.Fatal(err)
	}
	if cheap.After.CoreStates != res.CoreStates {
		t.Fatalf("|Q*| diverges: counting %d, full %d", cheap.After.CoreStates, res.CoreStates)
	}
	if cheap.After.Instrs != full.After.Instrs || cheap.After.DomainSum != full.After.DomainSum {
		t.Fatalf("machine budgets diverge: %+v vs %+v", cheap.After, full.After)
	}
	if cheap.After.Transitions != -1 {
		t.Fatalf("counting path materialised transitions: %d", cheap.After.Transitions)
	}
	if opt.NumInstrs() != full.After.Instrs {
		t.Fatalf("returned machine has L = %d, report says %d", opt.NumInstrs(), full.After.Instrs)
	}
	if !reflect.DeepEqual(cheap.MachinePasses, full.MachinePasses) {
		t.Fatalf("machine pass stats diverge:\n%+v\n%+v", cheap.MachinePasses, full.MachinePasses)
	}
}

// TestOptimizeFamilies checks the re-keyed family table: the final
// protocol keeps exactly one family per pointer, the input state belongs
// to the first pointer of the elect order, and register states map to -1.
func TestOptimizeFamilies(t *testing.T) {
	res, _ := optimizeProgram(t, geOneProgram())
	fams := res.Families()
	if len(fams) != res.Protocol.NumStates() {
		t.Fatalf("family table has %d entries for %d states",
			len(fams), res.Protocol.NumStates())
	}
	present := map[int]bool{}
	for _, f := range fams {
		present[f] = true
	}
	for pi := 0; pi < res.NumPointers; pi++ {
		if !present[pi] {
			t.Fatalf("pointer family %d has no surviving states", pi)
		}
	}
	if !present[-1] {
		t.Fatal("no register states survived")
	}
	input := res.Protocol.Input[0]
	if fams[input] != res.PointerOrder()[0] {
		t.Fatalf("input state family %d, want first elect pointer %d",
			fams[input], res.PointerOrder()[0])
	}
}

// unfusedOptimize is the reference composition Optimize fuses: the plain
// conversion of the shrunk machine, protocol.Reduce over the as-built
// wrapped table, protocol.CompactTransitions, and the family table
// re-keyed by state name.
func unfusedOptimize(t *testing.T, m *popmachine.Machine) (*Result, *OptReport) {
	t.Helper()
	coreBefore, protoBefore, err := CountStates(m)
	if err != nil {
		t.Fatal(err)
	}
	report := &OptReport{
		Name:     m.Name,
		Pipeline: PipelineTag,
		Before:   budgetOf(m, coreBefore, protoBefore, -1),
	}
	opt, mstats, err := compile.OptimizeMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	report.MachinePasses = mstats
	res, err := Convert(opt)
	if err != nil {
		t.Fatal(err)
	}
	built := res.Protocol
	reduced, removedStates, err := protocol.Reduce(built)
	if err != nil {
		t.Fatal(err)
	}
	final, silent, dups, err := protocol.CompactTransitions(reduced)
	if err != nil {
		t.Fatal(err)
	}
	report.ProtocolPasses = []PassStat{
		{Pass: "reduce", StatesRemoved: removedStates,
			TransitionsRemoved: len(built.Transitions) - len(reduced.Transitions)},
		{Pass: "prune-silent", TransitionsRemoved: silent},
		{Pass: "dedup", TransitionsRemoved: dups},
	}
	final.Name = m.Name + "-protocol-opt"
	families := make([]int, final.NumStates())
	for i, name := range final.States {
		old := built.StateIndex(name)
		if old < 0 {
			t.Fatalf("%s: state %q missing from the as-built protocol", m.Name, name)
		}
		families[i] = res.families[old]
	}
	res.Protocol, res.families = final, families
	report.After = budgetOf(opt, res.CoreStates, final.NumStates(), len(final.Transitions))
	return res, report
}

// windowProgram is Figure 1 deciding a ≤ x < b instead of 4 ≤ x < 7, the
// shape of ppbench's serve cache-miss programs.
func windowProgram(t *testing.T, a, b int) *popprog.Program {
	t.Helper()
	test := func(name string, n int) string {
		return fmt.Sprintf(`bool proc %s {
  repeat %d {
    if detect x { move x -> y } else { return false }
  }
  return true
}
`, name, n)
	}
	prog, err := popprog.Parse(fmt.Sprintf(`program window_%d_%d
registers x, y, z

proc Main {
  of false
  while not TestA() { Clean() }
  of true
  while not TestB() { Clean() }
  of false
  while true { Clean() }
}

proc Clean {
  if detect z { restart }
  swap x, y
  while detect y { move y -> x }
}
`, a, b) + test("TestA", a) + test("TestB", b))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// ofTrueMachine starts OF at true and never assigns it, so only opinion
// true is ever broadcast, while the states the input reaches before the
// elect chain enters an OF state keep opinion false as well: unlike the
// compiled programs, whose OF takes both values and whose occupied states
// all end with both opinions, its opinion masks differ from state to
// state, and a closure that carries opinions through a forced transition
// gets them wrong.
func ofTrueMachine(t *testing.T) *popmachine.Machine {
	t.Helper()
	b := popmachine.NewBuilder("of-true", []string{"x", "y"})
	m := b.Machine()
	b.Emit(popmachine.MoveInstr{X: 0, Y: 1})
	b.Emit(popmachine.Jump(m, 2))
	machine, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	machine.Pointers[machine.OF].Initial = popmachine.ValTrue
	return machine
}

// TestOptimizeMatchesUnfused holds the fused pipeline, which closes the
// support on per-core-state opinion masks and emits only the surviving
// wrapped transitions, to the composition it replaces: every Protocol
// field, the fingerprint, the report (and so the obs opt counters, which
// read only the report), the families, the core and the counts must be
// equal. It also checks the masks themselves against SupportClosure of the
// plain conversion's wrapped protocol.
func TestOptimizeMatchesUnfused(t *testing.T) {
	machines := append(goldenMachines(t), ofTrueMachine(t))
	for _, prog := range []*popprog.Program{geOneProgram(), geTwoProgram(),
		windowProgram(t, 2, 9), windowProgram(t, 5, 6)} {
		m, err := compile.Compile(prog)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	if !testing.Short() {
		czerner, err := core.New(2)
		if err != nil {
			t.Fatal(err)
		}
		equality, err := core.NewEquality(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []*core.Construction{czerner, equality} {
			m, err := compile.Compile(c.Program)
			if err != nil {
				t.Fatal(err)
			}
			machines = append(machines, m)
		}
	}
	for _, m := range machines {
		t.Run(m.Name, func(t *testing.T) {
			got, gotReport, err := Optimize(m)
			if err != nil {
				t.Fatal(err)
			}
			want, wantReport := unfusedOptimize(t, m)
			gp, wp := got.Protocol, want.Protocol
			for _, f := range []struct {
				what      string
				got, want any
			}{
				{"Protocol.Name", gp.Name, wp.Name},
				{"Protocol.States", gp.States, wp.States},
				{"Protocol.Transitions", gp.Transitions, wp.Transitions},
				{"Protocol.Input", gp.Input, wp.Input},
				{"Protocol.Accepting", gp.Accepting, wp.Accepting},
				{"Protocol.Fingerprint", gp.Fingerprint(), wp.Fingerprint()},
				{"OptReport", gotReport, wantReport},
				{"Families", got.Families(), want.Families()},
				{"Core", got.Core, want.Core},
				{"NumPointers", got.NumPointers, want.NumPointers},
				{"CoreStates", got.CoreStates, want.CoreStates},
				{"PointerOrder", got.PointerOrder(), want.PointerOrder()},
				{"InputState", got.InputState(), want.InputState()},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s differs from the unfused pipeline", f.what)
				}
			}

			opt, _, err := compile.OptimizeMachine(m)
			if err != nil {
				t.Fatal(err)
			}
			l, core, ofBit, err := convertCore(opt)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := Convert(opt)
			if err != nil {
				t.Fatal(err)
			}
			wantMask := make([]uint8, l.size)
			for _, i := range plain.Protocol.SupportClosure() {
				wantMask[i/2] |= 1 << (i % 2)
			}
			if mask := l.opinionMasks(core, ofBit); !reflect.DeepEqual(mask, wantMask) {
				t.Errorf("opinion masks differ from SupportClosure of the wrapped protocol")
			}
		})
	}
}
