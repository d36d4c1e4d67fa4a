package convert

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/protocol"
)

// TestReducedConvertedProtocolStillDecides applies the support-closure
// reduction to a fully converted protocol and exhaustively verifies the
// reduced protocol still decides φ'. The reduction removes ~47% of the
// states (opinion/stage/value combinations no run can occupy) — measured
// tightness of the Proposition 16 construction.
func TestReducedConvertedProtocolStillDecides(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	res := convertProgram(t, geOneProgram())
	reduced, removed, err := protocol.Reduce(res.Protocol)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("expected the conversion to leave unoccupiable states")
	}
	f := int64(res.NumPointers)
	sys := explore.NewProtocolSystem(reduced)
	for _, extra := range []int64{0, 1, 2} {
		m := f + extra
		want := extra >= 1
		c, err := reduced.InitialConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := explore.ExploreParallel[*multiset.Multiset](sys,
			[]*multiset.Multiset{c}, explore.Options{MaxStates: 4_000_000})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !checked.StabilisesTo(want) {
			t.Fatalf("m=%d: reduced protocol outcomes %v, want all %v",
				m, checked.Outcomes, want)
		}
	}
	t.Logf("reduction: %d → %d states (%d removed), %d → %d transitions",
		res.Protocol.NumStates(), reduced.NumStates(), removed,
		len(res.Protocol.Transitions), len(reduced.Transitions))
}
