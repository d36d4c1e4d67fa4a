package baseline

import (
	"math/bits"
	"testing"

	"repro/internal/explore"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
)

func TestBinaryThresholdGeneralDecidesExactly(t *testing.T) {
	// Exhaustive verification for every k ≤ 10 and all populations up to
	// max(8, k+2) — both directions of the decision, all fair runs.
	for k := int64(1); k <= 10; k++ {
		p, err := BinaryThresholdGeneral(k)
		if err != nil {
			t.Fatal(err)
		}
		maxAgents := int64(8)
		if k+2 > maxAgents {
			maxAgents = k + 2
		}
		if err := explore.CheckDecidesParallel(p, ThresholdPredicate(k), 1, maxAgents, 1, explore.Options{}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestBinaryThresholdGeneralStateCount(t *testing.T) {
	// Θ(log k): tokens (L+1) + accumulators (s−1) + z + K ≤ 2⌈log₂k⌉ + 2.
	for _, k := range []int64{2, 3, 5, 6, 7, 100, 1000, 123456, 1 << 40} {
		p, err := BinaryThresholdGeneral(k)
		if err != nil {
			t.Fatal(err)
		}
		bound := 2*bits.Len64(uint64(k)) + 2
		if p.NumStates() > bound {
			t.Fatalf("k=%d: %d states exceed 2⌈log₂k⌉+2 = %d", k, p.NumStates(), bound)
		}
	}
}

func TestBinaryThresholdGeneralMatchesPowerOfTwoVariant(t *testing.T) {
	// On powers of two both constructions decide the same predicate.
	pGeneral, err := BinaryThresholdGeneral(8)
	if err != nil {
		t.Fatal(err)
	}
	pPow, err := BinaryThreshold(3)
	if err != nil {
		t.Fatal(err)
	}
	for m := int64(1); m <= 10; m++ {
		for _, p := range []*protocol.Protocol{pGeneral, pPow} {
			c, err := p.InitialConfig(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkStabilises(p, c, m >= 8); err != nil {
				t.Fatalf("%s m=%d: %v", p.Name, m, err)
			}
		}
	}
}

func TestBinaryThresholdGeneralLargeSimulation(t *testing.T) {
	// k = 1000: too big for exhaustive checking; simulate both sides of
	// the threshold under the transition-fair scheduler.
	p, err := BinaryThresholdGeneral(1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		m    int64
		want protocol.Output
	}{
		{999, protocol.OutputFalse},
		{1000, protocol.OutputTrue},
		{1500, protocol.OutputTrue},
	} {
		c, err := p.InitialConfig(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		s := sched.NewTransitionFair(p, sched.NewRand(tc.m))
		res, err := simulate.Run(p, c, s, simulate.Options{
			MaxSteps: 5_000_000, QuiescencePeriod: 64, StableWindow: 20_000,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", tc.m, err)
		}
		if res.Output != tc.want {
			t.Fatalf("m=%d: output %v, want %v", tc.m, res.Output, tc.want)
		}
	}
}

func TestBinaryThresholdGeneralRejectsBadK(t *testing.T) {
	if _, err := BinaryThresholdGeneral(0); err == nil {
		t.Fatal("accepted k = 0")
	}
}

func TestBinaryThresholdGeneralOneAware(t *testing.T) {
	// Like every prior construction it is 1-aware: a single noise agent in
	// K flips the decision (contrast with Theorem 2).
	p, err := BinaryThresholdGeneral(6)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NoisyConfig(p, []int64{2}, map[string]int64{"K": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkStabilises(p, c, true); err != nil {
		t.Fatalf("expected the noisy configuration to (wrongly) accept: %v", err)
	}
}
