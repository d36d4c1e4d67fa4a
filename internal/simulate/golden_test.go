package simulate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/protocol"
)

// trajectoryGolden holds the SHA-256 TestKernelTrajectoryGolden computes
// for each kernel. A change that moves any run of a kernel by one
// interaction changes that kernel's hash; a change meant to keep a kernel's
// trajectories must leave its hash alone.
var trajectoryGolden = map[string]string{
	KernelExact: "fe87fd63da059187a179fa187612b06b1565e8781460510c5267c85a629c0768",
	KernelBatch: "9f0ca0f8f013d3284b0a1ef637e86b418cd788683a2b5be6d99614a4c54dcbf5",
	KernelAuto:  "5dd2283fd93a522ce6e45acce2f2993a8340bbf61c075c679dfd1cd20765419b",
}

// TestKernelTrajectoryGolden pins the trajectories of every kernel, bit for
// bit, one hash per kernel: it hashes the statistics, samples and error of
// one measurement per (point, kernel, quiescence period). The points reach
// every sampler path: the exact per-step and geometric-skip paths (unary:8
// at m = 7, remainder:3), bulk rounds, critical firings and the exact
// hand-offs (majority and binary:3 at m = 10⁵ under the batch kernel,
// unary:8 at 5·10⁴) and the hybrid's fluid↔discrete switches (the auto
// kernel at m ≥ 65,536). The quiescence periods are the default (1,000, or the kernel's
// m/16), a shorter one, and the default batch (65,536), which lets one
// StepN call span many bulk rounds and exact chunks. Runs that hit the step
// budget contribute their error.
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
	all := []string{KernelExact, KernelBatch, KernelAuto}
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
	hashes := make(map[string]hash.Hash)
	for _, kernel := range all {
		hashes[kernel] = sha256.New()
	}
	for _, pt := range points {
		var m int64
		for _, v := range pt.input {
			m += v
		}
		for _, kernel := range pt.kernels {
			h := hashes[kernel]
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
	for _, kernel := range all {
		if got := hex.EncodeToString(hashes[kernel].Sum(nil)); got != trajectoryGolden[kernel] {
			t.Errorf("%s kernel trajectories moved: hash %s, want %s", kernel, got, trajectoryGolden[kernel])
		}
	}
}
