package simulate

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate/stattest"
)

// TestNewKernelSchedulerSelection pins the kernel-name → scheduler mapping
// of NewScheduler, including the empty name (exact), a topology (the graph
// scheduler) and both sides of each of auto's population thresholds (exact
// ↔ tau-leap at AutoKernelThreshold, tau-leap ↔ hybrid ladder at
// AutoFluidThreshold).
func TestNewKernelSchedulerSelection(t *testing.T) {
	p := epidemic(t)
	rng := sched.NewRand(1)
	for _, tc := range []struct {
		opts Options
		m    int64
		want string
	}{
		{Options{}, 10, "*sched.BatchRandomPair"},
		{Options{Kernel: KernelExact}, 10, "*sched.BatchRandomPair"},
		{Options{Kernel: KernelBatch}, 10, "*sched.CollisionKernel"},
		{Options{Kernel: KernelAuto}, AutoKernelThreshold - 1, "*sched.BatchRandomPair"},
		{Options{Kernel: KernelAuto}, AutoKernelThreshold, "*sched.CollisionKernel"},
		{Options{Kernel: KernelAuto}, AutoFluidThreshold - 1, "*sched.CollisionKernel"},
		{Options{Kernel: KernelAuto}, AutoFluidThreshold, "*fluid.Hybrid"},
		{Options{Topology: &sched.TopologySpec{Kind: sched.TopoRing}}, 10, "*sched.GraphScheduler"},
	} {
		s, err := NewScheduler(p, rng, tc.opts, tc.m)
		if err != nil {
			t.Fatalf("%+v at m = %d: %v", tc.opts, tc.m, err)
		}
		if got := fmt.Sprintf("%T", s); got != tc.want {
			t.Fatalf("%+v at m = %d built %s, want %s", tc.opts, tc.m, got, tc.want)
		}
	}
	if _, err := NewScheduler(p, rng, Options{Kernel: "turbo"}, 10); err == nil {
		t.Fatal("bogus kernel name accepted")
	}
}

// TestOptionsBatchSizeResolution pins the chunk-size defaulting rule: an
// explicit BatchSize always wins, and zero means defaultBatch with or
// without a kernel.
func TestOptionsBatchSizeResolution(t *testing.T) {
	if got := (Options{}).batchSize(); got != defaultBatch {
		t.Fatalf("zero options batchSize = %d, want %d", got, defaultBatch)
	}
	if got := (Options{BatchSize: 77}).batchSize(); got != 77 {
		t.Fatalf("explicit batchSize = %d, want 77", got)
	}
	if got := (Options{Kernel: KernelBatch}).batchSize(); got != defaultBatch {
		t.Fatalf("kernel default batchSize = %d, want %d", got, defaultBatch)
	}
	if got := (Options{Kernel: KernelExact, BatchSize: 5}).batchSize(); got != 5 {
		t.Fatalf("kernel with explicit batchSize = %d, want 5", got)
	}
}

// TestMeasureConvergenceKernelReproducible pins the per-kernel
// reproducibility contract: for a fixed (kernel, seed) pair every statistic
// is bit-identical across repeated measurements and across worker counts.
// The auto point at m = 10⁵ runs the fluid hybrid, which keeps it under a
// worker pool in the race run, where the ladder's KS suite is skipped.
func TestMeasureConvergenceKernelReproducible(t *testing.T) {
	p := majority(t)
	for _, tc := range []struct {
		kernel string
		input  []int64
	}{
		{KernelExact, []int64{40, 25}},
		{KernelBatch, []int64{40, 25}},
		{KernelAuto, []int64{40, 25}},
		{KernelAuto, []int64{60_000, 40_000}},
	} {
		name := fmt.Sprintf("kernel %q at %v", tc.kernel, tc.input)
		opts := Options{Kernel: tc.kernel}
		a, err := MeasureConvergence(p, tc.input, true, 6, 11, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := MeasureConvergence(p, tc.input, true, 6, 11, opts)
		if err != nil {
			t.Fatalf("%s rerun: %v", name, err)
		}
		if *a != *b {
			t.Fatalf("%s not reproducible: %+v vs %+v", name, a, b)
		}
		wopts := opts
		wopts.Workers = 3
		w, err := MeasureConvergence(p, tc.input, true, 6, 11, wopts)
		if err != nil {
			t.Fatalf("%s workers: %v", name, err)
		}
		if *a != *w {
			t.Fatalf("%s differs across worker counts: %+v vs %+v", name, a, w)
		}
	}
	if _, err := MeasureConvergence(p, []int64{4, 3}, true, 1, 1, Options{Kernel: "turbo"}); err == nil {
		t.Fatal("bogus kernel accepted by MeasureConvergence")
	}
}

// TestKernelConvergenceDistributionsAgree is the statistical differential
// test of the tentpole: the distribution of convergence step counts under
// the collision kernel must agree with the exact kernel's under a
// two-sample Kolmogorov–Smirnov test at α ≈ 0.001. The epidemic at
// m = 4096 spends its whole life crossing the fallback/bulk boundary
// (1 infected → all infected), so the comparison exercises both regimes
// and the handoff between them.
func TestKernelConvergenceDistributionsAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 140 convergence measurements at m = 4096")
	}
	p := epidemic(t)
	const m = 4096
	const runs = 70
	// Identical driver granularity on both sides: the same chunk size and
	// stabilisation checks, so only the interaction kernel differs.
	mk := func(kernel string) Options {
		return Options{Kernel: kernel, BatchSize: 4096, Workers: 4}
	}
	_, exact, err := MeasureConvergenceWithSamples(p, []int64{1, m - 1}, true, runs, 1, mk(KernelExact))
	if err != nil {
		t.Fatal(err)
	}
	_, batch, err := MeasureConvergenceWithSamples(p, []int64{1, m - 1}, true, runs, 500_000, mk(KernelBatch))
	if err != nil {
		t.Fatal(err)
	}
	d := stattest.KSStatistic(exact, batch)
	crit := stattest.KSCriticalValue(0.001, len(exact), len(batch))
	if d > crit {
		t.Fatalf("KS statistic %.4f exceeds critical value %.4f (α ≈ 0.001)\nexact %v\nbatch %v",
			d, crit, Summarise(exact), Summarise(batch))
	}
	t.Logf("KS D = %.4f (critical %.4f); exact %v, batch %v",
		d, crit, Summarise(exact), Summarise(batch))
}

// TestKernelKSBenchmarkProtocols is the collision kernel's differential
// test on the protocols ppbench measures it on: majority 55/45, unary:8 and
// binary:3 at m = 2·10⁴, where every run crosses between bulk rounds and
// the exact path (critical categories, depleting tails). Each side runs at
// its default chunking (the kernel's m/16, the exact sampler's 1,000) with
// the stable window and step budget out of reach, so every run ends at
// quiescence, and the step counts must agree under a two-sample KS test at
// α = 0.01 over 300 runs per side.
func TestKernelKSBenchmarkProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1,800 convergence measurements at m = 2·10⁴")
	}
	unary8, err := baseline.UnaryThreshold(8)
	if err != nil {
		t.Fatal(err)
	}
	binary3, err := baseline.BinaryThreshold(3)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 300
	const alpha = 0.01
	for _, tc := range []struct {
		name  string
		p     *protocol.Protocol
		input []int64
	}{
		{"majority", majority(t), []int64{11_000, 9_000}},
		{"unary:8", unary8, []int64{20_000}},
		{"binary:3", binary3, []int64{20_000}},
	} {
		mk := func(kernel string) Options {
			return Options{Kernel: kernel, StableWindow: 1 << 62, MaxSteps: 1 << 40, Workers: 2}
		}
		_, exact, err := MeasureConvergenceWithSamples(tc.p, tc.input, true, runs, 1, mk(KernelExact))
		if err != nil {
			t.Fatalf("%s exact: %v", tc.name, err)
		}
		_, batch, err := MeasureConvergenceWithSamples(tc.p, tc.input, true, runs, 700_000, mk(KernelBatch))
		if err != nil {
			t.Fatalf("%s batch: %v", tc.name, err)
		}
		d := stattest.KSStatistic(exact, batch)
		crit := stattest.KSCriticalValue(alpha, len(exact), len(batch))
		if d > crit {
			t.Errorf("%s: KS D = %.4f exceeds critical %.4f (α = %.2f)\nexact %v\nbatch %v",
				tc.name, d, crit, alpha, Summarise(exact), Summarise(batch))
			continue
		}
		t.Logf("%s: KS D = %.4f (critical %.4f); exact %v, batch %v",
			tc.name, d, crit, Summarise(exact), Summarise(batch))
	}
}

// BenchmarkRunKernels measures full convergence runs (epidemic from a
// single infected agent) under each kernel, the end-to-end counterpart of
// sched's BenchmarkStepN.
func BenchmarkRunKernels(b *testing.B) {
	p := epidemic(b)
	const m = 1 << 16
	for _, kernel := range []string{KernelExact, KernelBatch} {
		b.Run("kernel="+kernel, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := convergenceRun(p, []int64{1, m - 1}, i, 1,
					Options{Kernel: kernel, QuiescencePeriod: 1 << 16})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "interactions/run")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/interaction")
		})
	}
}
