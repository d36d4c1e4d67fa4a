package convert

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/multiset"
)

// TestLeaderModelDecidesExactThreshold verifies the leader-model claim:
// with the |F| pointer agents provided as leaders, the converted ge1
// protocol decides x ≥ 1 over the *input* agents alone — no −|F| shift —
// exactly, over every fair run.
func TestLeaderModelDecidesExactThreshold(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive model checking is slow")
	}
	res := convertProgram(t, geOneProgram())
	sys := explore.NewProtocolSystem(res.Protocol)
	for x := int64(0); x <= 2; x++ {
		want := x >= 1
		cfg, err := res.LeaderConfig(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked, err := explore.ExploreParallel[*multiset.Multiset](sys,
			[]*multiset.Multiset{cfg}, explore.Options{MaxStates: 4_000_000})
		if err != nil {
			t.Fatalf("x=%d: %v", x, err)
		}
		if !checked.StabilisesTo(want) {
			t.Fatalf("x=%d: outcomes %v, want all %v (%d states)",
				x, checked.Outcomes, want, checked.NumStates)
		}
	}
}

// TestLeaderConfigShape checks the configuration is exactly π(C): one agent
// per pointer family plus x register agents.
func TestLeaderConfigShape(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	cfg, err := res.LeaderConfig(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Elected(cfg) {
		t.Fatal("leader config is not in elected shape")
	}
	counts := res.AgentsPerFamily(cfg)
	if counts[len(counts)-1] != 5 {
		t.Fatalf("register agents = %d, want 5", counts[len(counts)-1])
	}
	if cfg.Size() != int64(res.NumPointers)+5 {
		t.Fatalf("total = %d", cfg.Size())
	}
}

func TestLeaderConfigValidation(t *testing.T) {
	res := convertProgram(t, geOneProgram())
	if _, err := res.LeaderConfig(-1, 0); err == nil {
		t.Fatal("accepted negative input")
	}
	if _, err := res.LeaderConfig(1, 99); err == nil {
		t.Fatal("accepted out-of-range register")
	}
}
