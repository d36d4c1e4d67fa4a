package simulate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/protocol"
)

// trajectoryGolden is the SHA-256 TestKernelTrajectoryGolden computes. A
// change that moves any run of any kernel by one interaction changes it;
// a change meant to keep every trajectory must leave it alone.
const trajectoryGolden = "9355c0d79edc462400cbc88bdb749e391a787d521461a12185915d86f65cb4a4"

// TestKernelTrajectoryGolden pins the trajectories of every kernel, bit for
// bit: it hashes the statistics, samples and error of one measurement per
// (point, kernel, quiescence period). The points reach every sampler path:
// the exact per-step and geometric-skip paths (unary:8 at m = 7, remainder:3),
// bulk rounds with zero effective interactions and the exact fallback
// (majority and binary:3 at m = 10⁵ under the batch kernel, unary:8 at
// 5·10⁴) and the hybrid's fluid↔discrete switches (the auto kernel at
// m ≥ 65,536). The quiescence periods are the default (1,000), a shorter
// one, and the default batch (65,536), which lets one StepN call span many
// bulk rounds and fallback chunks. Runs that hit the step budget contribute
// their error.
func TestKernelTrajectoryGolden(t *testing.T) {
	maj, err := baseline.Majority()
	if err != nil {
		t.Fatal(err)
	}
	unary8, err := baseline.UnaryThreshold(8)
	if err != nil {
		t.Fatal(err)
	}
	binary3, err := baseline.BinaryThreshold(3)
	if err != nil {
		t.Fatal(err)
	}
	rem3, err := baseline.Remainder(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	all := []string{KernelExact, KernelBatch, KernelAuto, KernelFluid, KernelLangevin}
	// window and budget are in parallel-time units: the stable-output
	// window and MaxSteps per agent. remainder:3 ends only quiescent, once
	// within its budget and once past it.
	points := []struct {
		p              *protocol.Protocol
		input          []int64
		want           bool
		window, budget int64
		kernels        []string
	}{
		{maj, []int64{55_000, 45_000}, true, 10, 1_000, []string{KernelExact, KernelBatch, KernelAuto}},
		{unary8, []int64{7}, false, 10, 1_000, all},
		{unary8, []int64{50_000}, true, 10, 1_000, all},
		{binary3, []int64{1_000}, true, 10, 1_000, all},
		{binary3, []int64{100_000}, true, 10, 1_000, all[1:]},
		{rem3, []int64{999}, true, 100_000, 100_000, []string{KernelExact, KernelBatch}},
		{rem3, []int64{999}, true, 1_000, 1_000, []string{KernelExact}},
	}
	h := sha256.New()
	for _, pt := range points {
		var m int64
		for _, v := range pt.input {
			m += v
		}
		for _, kernel := range pt.kernels {
			for _, period := range []int64{0, 500, 1 << 16} {
				opts := Options{
					Kernel:           kernel,
					StableWindow:     pt.window * m,
					MaxSteps:         pt.budget * m,
					QuiescencePeriod: period,
				}
				stats, samples, err := MeasureConvergenceWithSamples(pt.p, pt.input, pt.want, 2, 7, opts)
				fmt.Fprintf(h, "%s %v %s q=%d: ", pt.p.Name, pt.input, kernel, period)
				if stats != nil {
					fmt.Fprintf(h, "%d %d %x %x %d %x", stats.Runs, stats.WrongOutputs,
						math.Float64bits(stats.MeanSteps), math.Float64bits(stats.MeanParallel),
						stats.MaxSteps, math.Float64bits(stats.MeanEffective))
				}
				for _, s := range samples {
					fmt.Fprintf(h, " %x", math.Float64bits(s))
				}
				fmt.Fprintf(h, " err=%v\n", err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != trajectoryGolden {
		t.Fatalf("kernel trajectories moved: hash %s, want %s", got, trajectoryGolden)
	}
}
