package protocol

import "testing"

func TestSupportClosureBasic(t *testing.T) {
	b := NewBuilder("closure")
	b.Input("a")
	b.Transition("a", "a", "b", "c")
	b.Transition("b", "c", "d", "d")
	b.Transition("z", "z", "q", "q") // unreachable island
	b.Accepting("d")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := p.SupportClosure()
	// Reachable: a, b, c, d — not z or q.
	names := make(map[string]bool)
	for _, i := range got {
		names[p.States[i]] = true
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if !names[want] {
			t.Fatalf("closure missing %q: %v", want, names)
		}
	}
	if names["z"] || names["q"] {
		t.Fatalf("closure includes unreachable states: %v", names)
	}
}

func TestReduceRemovesIslands(t *testing.T) {
	b := NewBuilder("islands")
	b.Input("a")
	b.Transition("a", "a", "b", "b")
	b.Transition("z", "z", "z", "z") // island, silent too
	b.Transition("z", "a", "q", "q") // can never fire (z unoccupiable)
	b.Accepting("b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reduced, removed, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 { // z and q
		t.Fatalf("removed %d states, want 2", removed)
	}
	if reduced.StateIndex("z") != -1 || reduced.StateIndex("q") != -1 {
		t.Fatal("island states survived")
	}
	if reduced.StateIndex("a") < 0 || reduced.StateIndex("b") < 0 {
		t.Fatal("live states lost")
	}
	if len(reduced.Transitions) != 1 {
		t.Fatalf("%d transitions, want 1", len(reduced.Transitions))
	}
	if !reduced.Accepting[reduced.StateIndex("b")] {
		t.Fatal("accepting flag lost")
	}
}

func TestReducePreservesBehaviour(t *testing.T) {
	// Build a protocol with unreachable decoration, reduce it, and check
	// both decide identically on a few inputs by direct stepping.
	b := NewBuilder("decorated")
	b.Input("I", "S")
	b.Transition("I", "S", "I", "I")
	b.Transition("ghost", "ghost", "I", "I")
	b.Accepting("I")
	b.Accepting("ghost")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reduced, removed, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d, want 1 (ghost)", removed)
	}
	if err := reduced.Validate(); err != nil {
		t.Fatalf("reduced protocol is invalid: %v", err)
	}
	// Same input arity and same reachable behaviour: one infection step.
	c1, _ := p.InitialConfig(1, 1)
	c2, _ := reduced.InitialConfig(1, 1)
	s1 := p.Successors(c1)
	s2 := reduced.Successors(c2)
	if len(s1) != 1 || len(s2) != 1 {
		t.Fatalf("successor counts differ: %d vs %d", len(s1), len(s2))
	}
	if p.OutputOf(s1[0]) != reduced.OutputOf(s2[0]) {
		t.Fatal("outputs diverge after reduction")
	}
}

func TestReduceValidates(t *testing.T) {
	if _, _, err := Reduce(&Protocol{Name: "bad"}); err == nil {
		t.Fatal("accepted an invalid protocol")
	}
}

func TestReduceIsIdempotentOnTightProtocols(t *testing.T) {
	b := NewBuilder("tight")
	b.Input("a")
	b.Transition("a", "a", "b", "b")
	b.Accepting("b")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	reduced, removed, err := Reduce(p)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("removed %d states from a tight protocol", removed)
	}
	if reduced.NumStates() != p.NumStates() {
		t.Fatal("state count changed")
	}
}
