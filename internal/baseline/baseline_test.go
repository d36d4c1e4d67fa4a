package baseline

import (
	"fmt"
	"testing"

	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

// checkStabilises explores every fair run of p from c and reports an error
// unless all of them stabilise to want.
func checkStabilises(p *protocol.Protocol, c *multiset.Multiset, want bool) error {
	res, err := explore.ExploreParallel(explore.NewProtocolSystem(p), []*multiset.Multiset{c}, explore.Options{})
	if err != nil {
		return err
	}
	if !res.StabilisesTo(want) {
		return fmt.Errorf("fair runs do not all stabilise to %v (bottom SCC outcomes %v, witnesses %q)",
			want, res.Outcomes, res.WitnessKeys)
	}
	return nil
}

func TestMajorityDecidesExactly(t *testing.T) {
	p, err := Majority()
	if err != nil {
		t.Fatal(err)
	}
	if err := explore.CheckDecidesParallel(p, MajorityPredicate, 1, 6, 1, explore.Options{}); err != nil {
		t.Fatalf("majority is not an exact decider: %v", err)
	}
}

func TestMajorityStateCount(t *testing.T) {
	p, err := Majority()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumStates() != 4 {
		t.Fatalf("majority has %d states, want 4", p.NumStates())
	}
}

func TestUnaryThresholdDecidesExactly(t *testing.T) {
	for k := int64(1); k <= 4; k++ {
		p, err := UnaryThreshold(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := explore.CheckDecidesParallel(p, ThresholdPredicate(k), 1, 6, 1, explore.Options{}); err != nil {
			t.Fatalf("unary threshold k=%d: %v", k, err)
		}
	}
}

func TestUnaryThresholdStateCount(t *testing.T) {
	for k := int64(1); k <= 10; k++ {
		p, err := UnaryThreshold(k)
		if err != nil {
			t.Fatal(err)
		}
		if got := int64(p.NumStates()); got != k+1 {
			t.Fatalf("k=%d: %d states, want %d", k, got, k+1)
		}
	}
}

func TestUnaryThresholdRejectsBadK(t *testing.T) {
	if _, err := UnaryThreshold(0); err == nil {
		t.Fatal("accepted k = 0")
	}
}

func TestBinaryThresholdDecidesExactly(t *testing.T) {
	for j := 0; j <= 3; j++ {
		p, err := BinaryThreshold(j)
		if err != nil {
			t.Fatal(err)
		}
		k := int64(1) << uint(j)
		maxAgents := int64(6)
		if maxAgents < k+2 {
			maxAgents = k + 2
		}
		if maxAgents > 10 {
			maxAgents = 10
		}
		if err := explore.CheckDecidesParallel(p, ThresholdPredicate(k), 1, maxAgents, 1, explore.Options{}); err != nil {
			t.Fatalf("binary threshold 2^%d: %v", j, err)
		}
	}
}

func TestBinaryThresholdStateCountLogarithmic(t *testing.T) {
	for j := 1; j <= 20; j++ {
		p, err := BinaryThreshold(j)
		if err != nil {
			t.Fatal(err)
		}
		// States: e0..e(j-1), z, K — exactly j+2 for j ≥ 1.
		if got := p.NumStates(); got != j+2 {
			t.Fatalf("j=%d: %d states, want %d", j, got, j+2)
		}
	}
}

func TestBinaryThresholdRejectsNegative(t *testing.T) {
	if _, err := BinaryThreshold(-1); err == nil {
		t.Fatal("accepted j = -1")
	}
}

func TestBinaryThresholdLargeSimulation(t *testing.T) {
	// 2^6 = 64: too big for exhaustive checking, simulate both sides.
	p, err := BinaryThreshold(6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		m    int64
		want protocol.Output
	}{
		{64, protocol.OutputTrue},
		{100, protocol.OutputTrue},
		{63, protocol.OutputFalse},
	}
	for _, tc := range cases {
		c, err := p.InitialConfig(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.NewTransitionFair(p, sched.NewRand(tc.m))
		res, err := simulate.Run(p, c, s, simulate.Options{
			MaxSteps: 2_000_000, QuiescencePeriod: 16, StableWindow: 5_000,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", tc.m, err)
		}
		if res.Output != tc.want {
			t.Fatalf("m=%d: output %v, want %v", tc.m, res.Output, tc.want)
		}
	}
}

func TestUnaryThresholdOneAware(t *testing.T) {
	// Theorem 2 context: baselines are 1-aware — a single noise agent in K
	// makes a below-threshold population accept.
	p, err := UnaryThreshold(5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NoisyConfig(p, []int64{2}, map[string]int64{"K": 1})
	if err != nil {
		t.Fatal(err)
	}
	// Population of 3 agents (2 intended + 1 noise), threshold 5: every
	// fair run wrongly stabilises to true.
	if err := checkStabilises(p, c, true); err != nil {
		t.Fatalf("expected the noisy run to (wrongly) accept: %v", err)
	}
}

func TestBinaryThresholdOneAware(t *testing.T) {
	p, err := BinaryThreshold(3) // k = 8
	if err != nil {
		t.Fatal(err)
	}
	c, err := NoisyConfig(p, []int64{2}, map[string]int64{"K": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStabilises(p, c, true); err != nil {
		t.Fatalf("expected the noisy run to (wrongly) accept: %v", err)
	}
}

func TestNoisyConfigValidation(t *testing.T) {
	p, err := UnaryThreshold(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NoisyConfig(p, []int64{1}, map[string]int64{"bogus": 1}); err == nil {
		t.Fatal("accepted an unknown noise state")
	}
	if _, err := NoisyConfig(p, []int64{1}, map[string]int64{"K": -1}); err == nil {
		t.Fatal("accepted a negative noise count")
	}
	c, err := NoisyConfig(p, []int64{2}, map[string]int64{"K": 1, "v0": 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 {
		t.Fatalf("noisy config size %d, want 5", c.Size())
	}
}

func TestUnaryThresholdSimulationAroundK(t *testing.T) {
	p, err := UnaryThreshold(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m    int64
		want protocol.Output
	}{{8, protocol.OutputFalse}, {9, protocol.OutputTrue}, {15, protocol.OutputTrue}} {
		c, err := p.InitialConfig(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		// Hiding StepN keeps Run on the per-step uniform random-pair path.
		s := struct{ sched.Scheduler }{sched.NewBatchRandomPair(p, sched.NewRand(tc.m*31))}
		res, err := simulate.Run(p, c, s, simulate.Options{
			MaxSteps: 5_000_000, QuiescencePeriod: 64,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", tc.m, err)
		}
		if res.Output != tc.want {
			t.Fatalf("m=%d: output %v, want %v", tc.m, res.Output, tc.want)
		}
	}
}
