package explore

import (
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// TestProtocolExploreAllocsPerState pins the clone-free protocol path:
// successors are fired in place on the worker's decoded configuration and
// interned by their run-length keys, so no configuration is allocated per
// successor, and edges go to the CSR arrays, so no state owns a slice. A
// small free walk (k = 6, m = 10: C(15,5) = 3003 states, wide BFS levels)
// stays under one allocation per state: about 0.3 here, against 1.3 with a
// slice per state's edges and 54 when each successor was a cloned
// configuration.
func TestProtocolExploreAllocsPerState(t *testing.T) {
	const k, m, states = 6, 10, 3003
	p := freeWalkProtocol(t, k)
	sys := NewProtocolSystem(p)
	c := spillInitial(t, p, m)
	allocs := testing.AllocsPerRun(5, func() {
		res, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumStates != states {
			t.Fatalf("NumStates = %d, want %d", res.NumStates, states)
		}
	})
	perState := allocs / states
	if perState > 1 {
		t.Fatalf("protocol exploration allocates %.2f objects/state (total %.0f), budget 1", perState, allocs)
	}
}

// TestMachineExploreAllocsPerState pins the clone-free machine path: the
// compiled Figure 1 machine from every register placement of 7 agents
// (13,654 states) on one worker. Successors are applied in place on the
// worker's decoded configuration and encoded, and edges go to the CSR
// arrays, so nothing is allocated per state: about 0.08 allocations per
// state, against 6.8 when each successor was a cloned configuration kept in
// a states slice.
func TestMachineExploreAllocsPerState(t *testing.T) {
	const states = 13_654
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	initial := machinePlacements(t, machine, 7)
	allocs := testing.AllocsPerRun(3, func() {
		res, err := ExploreParallel[*popmachine.Config](sys, initial, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.NumStates != states {
			t.Fatalf("NumStates = %d, want %d", res.NumStates, states)
		}
	})
	perState := allocs / states
	if perState > 0.5 {
		t.Fatalf("machine exploration allocates %.2f objects/state (total %.0f), budget 0.5", perState, allocs)
	}
}

// TestExploreWorkersAllocBound: the engine allocates one expansion scratch
// per frontier chunk when the chunk first needs it, never one per worker up
// front, so a huge Workers value costs nothing on a small system. A
// 3-state approximate majority explored at Workers = 2²⁰ stays under 2 MB,
// and at Workers = 1 under 256 KiB, since the key log's tail grows on
// demand.
func TestExploreWorkersAllocBound(t *testing.T) {
	b := protocol.NewBuilder("approx-majority")
	b.Input("X", "Y")
	b.Transition("X", "Y", "X", "B")
	b.Transition("Y", "X", "Y", "B")
	b.Transition("X", "B", "X", "X")
	b.Transition("Y", "B", "Y", "Y")
	b.Accepting("X")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.InitialConfig(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys := NewProtocolSystem(p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{Workers: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("exploration at Workers = 2^20 allocated %d bytes, want < 2 MB", got)
	}
	// At one worker the same exploration is a few KB of keys: the key log
	// must not allocate a whole segment for them up front.
	runtime.ReadMemStats(&before)
	if _, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 256<<10 {
		t.Fatalf("exploration at Workers = 1 allocated %d bytes, want < 256 KiB", got)
	}
}
