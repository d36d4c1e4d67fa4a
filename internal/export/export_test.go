package export

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

func TestProtocolDOT(t *testing.T) {
	p, err := baseline.Majority()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ProtocolDOT(&sb, p); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"digraph \"majority\"",
		"peripheries=2", // accepting states
		"shape=box",     // input states
		"with Y → x",    // a transition label
		"}",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestProtocolDOTValidates(t *testing.T) {
	var sb strings.Builder
	if err := ProtocolDOT(&sb, &protocol.Protocol{Name: "bad"}); err == nil {
		t.Fatal("accepted an invalid protocol")
	}
}

func TestMachineDOT(t *testing.T) {
	m, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := MachineDOT(&sb, m); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "digraph") || !strings.Contains(out, "detect") {
		t.Fatalf("machine DOT malformed:\n%.400s", out)
	}
	// Every instruction node appears.
	if got := strings.Count(out, "label=\""); got < m.NumInstrs() {
		t.Fatalf("only %d labels for %d instructions", got, m.NumInstrs())
	}
	// Jump edges exist (the restart helper jumps to 1).
	if !strings.Contains(out, "-> i1;") {
		t.Fatal("no back-edge to instruction 1")
	}
}

func TestReachabilityDOT(t *testing.T) {
	p, err := baseline.Majority()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.InitialConfig(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ReachabilityDOT(&sb, p, []*multiset.Multiset{c}, 100); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "{X:2, Y:1}") {
		t.Fatalf("initial configuration missing:\n%s", out)
	}
	if !strings.Contains(out, "palegreen") {
		t.Fatal("no accepting-coloured configuration")
	}
	if strings.Contains(out, "(truncated)") {
		t.Fatal("tiny graph should not truncate")
	}
}

func TestReachabilityDOTTruncates(t *testing.T) {
	p, err := baseline.UnaryThreshold(4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.InitialConfig(6)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ReachabilityDOT(&sb, p, []*multiset.Multiset{c}, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(truncated)") {
		t.Fatal("expected truncation marker")
	}
}

func TestTraceCSV(t *testing.T) {
	p, err := baseline.Majority()
	if err != nil {
		t.Fatal(err)
	}
	s := sched.NewBatchRandomPair(p, sched.NewRand(3))
	_, trace, err := simulate.RunTraced(p, []int64{6, 3}, s, 10, simulate.Options{
		MaxSteps: 5_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := TraceCSV(&sb, trace); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "step,accepting,fraction" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != len(trace.Steps)+1 {
		t.Fatalf("%d lines for %d samples", len(lines), len(trace.Steps))
	}
	if !strings.HasSuffix(lines[len(lines)-1], "1.000000") {
		t.Fatalf("final fraction not 1: %q", lines[len(lines)-1])
	}
}

func TestQuoteEscapes(t *testing.T) {
	if got := quote(`a"b`); got != `"a\"b"` {
		t.Fatalf("quote = %s", got)
	}
}
