package main

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/simulate"
)

var simulateWorkload = workload{
	name:        "simulate",
	why:         "convergence runs across the exact, tau-leap and fluid tiers of one scheduler layer; the compiler, converter and explorer are bypassed",
	clients:     1,
	passSeconds: 1.25,
	setup:       setupSimulate,
}

// simPoint is one convergence measurement: runs independent runs of target
// from input under kernel, every one of which must stabilise to want.
type simPoint struct {
	target string
	input  []int64
	kernel string
	want   bool
	// windowPT is the stable-output window in parallel-time units: a run
	// may stop on the heuristic only after its output held for this many
	// interactions per agent.
	windowPT int64
}

// simRuns and simWorkers: two runs, one after the other. With the runs fanned
// over the box's two CPUs, an op waited for the slower CPU, and a stall of
// either shared vCPU widened the run-to-run spread of every timing past 25%.
const (
	simRuns    = 2
	simWorkers = 1
)

// stableWindowPT is the window of every point but remainder:3. The
// runner's default (10,000 interactions, regardless of m) stops unary:8 at
// m = 10⁶ under the auto kernel on a wrong false; ten parallel-time units
// gave no wrong output in 200 to 10,000 runs of each point.
const stableWindowPT = 10

// maxStepsPT bounds a run at this many interactions per agent; every point
// converges well inside it (remainder:3 at m = 999 is the slowest, up to
// about 15,000).
const maxStepsPT = 100_000

// quiescentOnly is a window no run reaches, so only quiescence ends the
// run. remainder:3 needs it: while its last two active agents look for
// each other the output can read false for thousands of parallel-time
// units (a window of 1,000 still stopped 2 of 4,000 runs on a wrong false),
// and its runs end quiescent at no extra cost.
const quiescentOnly = maxStepsPT

func majorityInput(m int64) []int64 { return []int64{m * 55 / 100, m - m*55/100} }

var simulateFull = []simPoint{
	{"majority", majorityInput(1e4), simulate.KernelExact, true, stableWindowPT},
	{"majority", majorityInput(1e5), simulate.KernelExact, true, stableWindowPT},
	{"majority", majorityInput(1e6), simulate.KernelBatch, true, stableWindowPT},
	{"majority", majorityInput(1e7), simulate.KernelAuto, true, stableWindowPT},
	{"majority", majorityInput(1e12), simulate.KernelAuto, true, stableWindowPT},
	{"unary:8", []int64{7}, simulate.KernelExact, false, stableWindowPT},
	{"unary:8", []int64{1e5}, simulate.KernelExact, true, stableWindowPT},
	{"unary:8", []int64{1e6}, simulate.KernelAuto, true, stableWindowPT},
	{"binary:3", []int64{1e3}, simulate.KernelExact, true, stableWindowPT},
	{"binary:3", []int64{1e5}, simulate.KernelAuto, true, stableWindowPT},
	{"remainder:3", []int64{999}, simulate.KernelExact, true, quiescentOnly},
}

var simulateSmoke = []simPoint{
	{"majority", majorityInput(1e3), simulate.KernelExact, true, stableWindowPT},
	{"majority", majorityInput(1e12), simulate.KernelAuto, true, stableWindowPT},
	{"unary:8", []int64{7}, simulate.KernelExact, false, stableWindowPT},
}

type simulateInst struct {
	seed   int64
	points []simPoint
	protos []*protocol.Protocol
}

func setupSimulate(cfg config) (instance, error) {
	points := simulateFull
	if cfg.smoke {
		points = simulateSmoke
	}
	inst := &simulateInst{seed: cfg.seed, points: points}
	for _, pt := range points {
		p, pred, err := protocolTarget(pt.target)
		if err != nil {
			return nil, err
		}
		if pred(pt.input) != pt.want {
			return nil, fmt.Errorf("simulate point %s %v: expected output disagrees with the predicate", pt.target, pt.input)
		}
		inst.protos = append(inst.protos, p)
	}
	return inst, nil
}

func (s *simulateInst) close() error { return nil }

// pass draws every point's run seed from (seed, pass), so results are
// bit-reproducible for a given seed.
func (s *simulateInst) pass(p int) []op {
	rng := passRand(s.seed, p)
	ops := make([]op, len(s.points))
	for i, pt := range s.points {
		ops[i] = simOp(pt, s.protos[i], rng.Int63())
	}
	return shuffled(ops, rng)
}

func simOp(pt simPoint, p *protocol.Protocol, seed int64) op {
	var m int64
	for _, v := range pt.input {
		m += v
	}
	opts := simulate.Options{
		Kernel:       pt.kernel,
		StableWindow: pt.windowPT * m,
		MaxSteps:     maxStepsPT * m,
		Workers:      simWorkers,
	}
	return op{
		kind: fmt.Sprintf("%s:m=%d:%s", pt.target, m, pt.kernel),
		run: func(c *opCtx) error {
			var stats *simulate.ConvergenceStats
			var samples []float64
			if err := c.call("simulate.MeasureConvergenceWithSamples", func() (err error) {
				stats, samples, err = simulate.MeasureConvergenceWithSamples(p, pt.input, pt.want, simRuns, seed, opts)
				return err
			}); err != nil {
				return err
			}
			if stats.WrongOutputs != 0 {
				return fmt.Errorf("%d of %d runs stabilised to %v", stats.WrongOutputs, stats.Runs, !pt.want)
			}
			if len(samples) != simRuns {
				return fmt.Errorf("%d samples, want %d", len(samples), simRuns)
			}
			return nil
		},
	}
}
