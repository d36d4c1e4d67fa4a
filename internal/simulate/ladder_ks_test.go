package simulate

import (
	"testing"

	"repro/internal/simulate/stattest"
)

// TestLadderKSAdjacentTiers is the cross-tier statistical differential suite
// of the simulation ladder: the distribution of convergence step counts
// under the hybrid ladder (the auto kernel at m ≥ AutoFluidThreshold) must
// agree with a discrete kernel's, under a two-sample Kolmogorov–Smirnov
// test at α = 0.01 over 300 runs a side.
//
//   - tau-leap (collision kernel) vs the hybrid ladder, at m = 10⁵ and 10⁷:
//     the epidemic seeded from one infected agent crosses the
//     discrete→fluid→discrete regime boundaries, so the comparison
//     exercises the fluid tier's interior flow *and* both hand-offs. The
//     convergence time's randomness lives in the boundary layers, which the
//     hybrid resolves with the same discrete machinery — the deterministic
//     interior must not shift the distribution.
//   - exact vs the hybrid ladder from a macroscopic start (10% infected) at
//     m = 10⁵: the ladder goes fluid as soon as the infected count clears
//     the 2¹⁴ floor, so most of the bulk is integrated, not sampled. This
//     is the configuration on which a Langevin diffusion tier measured a
//     mean convergence step 3.7% low (KS D = 0.197), a bias 70 runs at
//     α = 0.05 could not detect.
//
// Both sides of each pair run at identical driver granularity (same
// BatchSize, stabilisation window and quiescence checks), so only the tier
// differs.
func TestLadderKSAdjacentTiers(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs 1,800 convergence measurements at m = 10⁵⁺")
	}
	p := epidemic(t)
	const runs = 300
	const alpha = 0.01

	pairTest := func(name string, m int64, start []int64, kernelA, kernelB string, seedB int64) {
		t.Helper()
		mk := func(kernel string) Options {
			return Options{Kernel: kernel, BatchSize: 4096, Workers: 4, MaxSteps: 1 << 40}
		}
		_, a, err := MeasureConvergenceWithSamples(p, start, true, runs, 1, mk(kernelA))
		if err != nil {
			t.Fatalf("%s/%s: %v", name, kernelA, err)
		}
		_, b, err := MeasureConvergenceWithSamples(p, start, true, runs, seedB, mk(kernelB))
		if err != nil {
			t.Fatalf("%s/%s: %v", name, kernelB, err)
		}
		d := stattest.KSStatistic(a, b)
		crit := stattest.KSCriticalValue(alpha, len(a), len(b))
		if d > crit {
			t.Errorf("%s: KS D = %.4f exceeds critical %.4f (α = %.2f)\n%s %v\n%s %v",
				name, d, crit, alpha, kernelA, Summarise(a), kernelB, Summarise(b))
			return
		}
		t.Logf("%s: KS D = %.4f (critical %.4f); %s %v, %s %v",
			name, d, crit, kernelA, Summarise(a), kernelB, Summarise(b))
	}

	// Tau-leap vs hybrid ladder across the boundary-crossing epidemic.
	pairTest("batch-vs-ladder/m=1e5", 100_000, []int64{1, 100_000 - 1},
		KernelBatch, KernelAuto, 500_000)
	pairTest("batch-vs-ladder/m=1e7", 10_000_000, []int64{1, 10_000_000 - 1},
		KernelBatch, KernelAuto, 500_000)

	// Exact vs hybrid ladder from a macroscopic start (10% infected), where
	// the ladder integrates most of the bulk as fluid.
	pairTest("exact-vs-ladder/m=1e5", 100_000, []int64{10_000, 90_000},
		KernelExact, KernelAuto, 500_000)
}
