// Package simulate runs population protocols under a scheduler until
// (apparent) stabilisation and collects convergence statistics.
//
// Exact stabilisation is undecidable to observe from a finite prefix in
// general, so the runner combines two criteria:
//
//   - Definite: no non-silent transition is enabled. The configuration can
//     never change again; its output is final.
//   - Heuristic: the consensus output has been constantly true or false for
//     a configured window of consecutive steps. This is the standard
//     statistical criterion; EXPERIMENTS.md documents it as a substitution
//     for the paper's order-theoretic notion of stabilisation.
package simulate

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"repro/internal/fluid"
	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// Interaction-kernel names accepted by Options.Kernel and the CLI -kernel
// flags. The empty string means KernelExact.
const (
	// KernelExact drives the exact sampler (BatchRandomPair): every
	// interaction follows the uniform random-pair law, with analytic
	// geometric skipping of null runs.
	KernelExact = "exact"
	// KernelBatch drives the count-based collision kernel
	// (sched.CollisionKernel): tau-leap rounds advance whole blocks of
	// interactions against frozen counts, falling back to the exact path
	// near small counts.
	KernelBatch = "batch"
	// KernelAuto climbs the whole ladder by population size: KernelExact
	// below AutoKernelThreshold, the collision kernel from there to
	// AutoFluidThreshold, and the regime-switching hybrid (fluid.Hybrid —
	// fluid flow while every consumed species is macroscopic, tau-leap
	// through boundary layers) at or above it.
	KernelAuto = "auto"
)

// AutoKernelThreshold is the population size at or above which KernelAuto
// leaves the exact sampler. Below it the kernel would spend essentially
// all its time in the exact fallback anyway, so auto skips the indirection.
const AutoKernelThreshold = 4096

// AutoFluidThreshold is the population size at or above which KernelAuto
// selects the regime-switching fluid hybrid. It is a total, not the
// hybrid's per-species floor: the hybrid itself only engages the fluid tier
// once every consumed species clears fluid.DefaultFloor (2¹⁴ agents), so
// the threshold just marks where fluid phases become worth having at all.
const AutoFluidThreshold = 1 << 16

// defaultBatch is the StepN chunk size used when BatchSize is left zero.
const defaultBatch = 1 << 16

// NewScheduler builds the scheduler one run of p over a population of m
// agents uses under opts: the graph scheduler of opts.Topology when one is
// set, and otherwise the count-based sampler opts.Kernel names (empty means
// KernelExact). It is the single decision point shared by the measurement
// functions and the CLIs.
func NewScheduler(p *protocol.Protocol, rng *rand.Rand, opts Options, m int64) (sched.Scheduler, error) {
	if opts.Topology != nil {
		s, err := opts.Topology.NewScheduler(p, rng, m)
		if err != nil {
			return nil, err // not a nil *GraphScheduler in a non-nil Scheduler
		}
		return s, nil
	}
	switch opts.Kernel {
	case "", KernelExact:
		return sched.NewBatchRandomPair(p, rng), nil
	case KernelBatch:
		return sched.NewCollisionKernel(p, rng), nil
	case KernelAuto:
		switch {
		case m >= AutoFluidThreshold:
			return fluid.NewHybrid(p, rng), nil
		case m >= AutoKernelThreshold:
			return sched.NewCollisionKernel(p, rng), nil
		default:
			return sched.NewBatchRandomPair(p, rng), nil
		}
	default:
		return nil, errUnknownKernel(opts.Kernel)
	}
}

// kernels lists the accepted Kernel names in ladder order.
var kernels = []string{KernelExact, KernelBatch, KernelAuto}

// KernelUsage lists the accepted Kernel names for help text:
// "exact | batch | auto".
func KernelUsage() string { return strings.Join(kernels, " | ") }

func errUnknownKernel(kernel string) error {
	return fmt.Errorf("simulate: unknown kernel %q (want %s)", kernel, KernelUsage())
}

// ErrBudgetExhausted is returned when MaxSteps elapses without meeting a
// stabilisation criterion.
var ErrBudgetExhausted = errors.New("simulate: step budget exhausted before stabilisation")

// Options configures a simulation run.
type Options struct {
	// MaxSteps bounds the total number of scheduler steps.
	// Zero means 50,000,000.
	MaxSteps int64
	// StableWindow is the number of consecutive steps the output must stay
	// constant (and non-mixed) to declare heuristic stabilisation.
	// Zero means 10,000.
	StableWindow int64
	// CheckQuiescence enables the definite criterion: every
	// QuiescencePeriod steps the runner scans for enabled transitions and
	// stops if there are none. Zero means 1,000, or, when BatchSize is
	// also zero and the scheduler states a preferred chunk (the collision
	// kernel and the hybrid: max(1,000, m/16)), that chunk.
	QuiescencePeriod int64
	// BatchSize is the chunk size of the batched driver: when the
	// scheduler implements sched.BatchScheduler, Run advances the
	// configuration in batches of up to BatchSize steps (aligned so every
	// QuiescencePeriod boundary is still observed) and evaluates the
	// stable-window heuristic at batch boundaries instead of every step.
	// Batches are distributionally equivalent to per-step execution; only
	// the granularity of the stabilisation checks changes, so a run may
	// overshoot the exact step at which a per-step runner would have
	// stopped by less than one batch. Zero means 65,536, or the
	// scheduler's preferred chunk when it states one. Schedulers without
	// StepN (the graph schedulers, TransitionFair) run per step.
	BatchSize int64
	// Kernel selects the interaction kernel, one of the Kernel* constants,
	// and so the scheduler NewScheduler builds. Empty means KernelExact.
	Kernel string
	// Workers is the number of goroutines the measurement functions fan
	// runs out over (SweepResumable: points, each measuring its runs on one
	// goroutine), through par.Ordered. Each run draws its PRNG from seed+i
	// and results are aggregated in run order, so statistics and the
	// reported error are bit-identical for every worker count. Values ≤ 1
	// run on the caller's goroutine; Validate rejects values above 1024.
	Workers int
	// Topology, when non-nil, restricts the interaction graph: the
	// measurement functions drive each run through the graph scheduler of
	// internal/sched (built fresh per run over the input population, with
	// the spec's edge-selection policy and crash/revive/join fault rates)
	// instead of the count-based kernels. The graph scheduler is per-step,
	// so Topology excludes Kernel and BatchSize.
	Topology *sched.TopologySpec
}

// maxWorkers bounds Options.Workers, which arrives from flags and ppserved
// requests: without it one request could start a goroutine per run, and an
// explore job sized by it could start one per frontier chunk.
const maxWorkers = 1024

// Validate checks the options without running anything, and is the one
// place their rules live: every limit is non-negative, Workers is at most
// 1024, Kernel is empty or a known kernel, a Topology excludes Kernel and
// BatchSize (the graph scheduler is per-step) and passes
// sched.TopologySpec.Validate (a known edge-selection policy and fault rates
// in [0, 1]). The CLIs and ppserved call it before they run; the
// measurement functions call it once per measurement.
func (o Options) Validate() error {
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"MaxSteps", o.MaxSteps}, {"StableWindow", o.StableWindow},
		{"QuiescencePeriod", o.QuiescencePeriod}, {"BatchSize", o.BatchSize},
		{"Workers", int64(o.Workers)},
	} {
		if f.v < 0 {
			return fmt.Errorf("simulate: %s must be ≥ 0, got %d", f.name, f.v)
		}
	}
	if o.Workers > maxWorkers {
		return fmt.Errorf("simulate: Workers must be ≤ %d, got %d", maxWorkers, o.Workers)
	}
	if o.Kernel != "" && !slices.Contains(kernels, o.Kernel) {
		return errUnknownKernel(o.Kernel)
	}
	if o.Topology == nil {
		return nil
	}
	if o.Kernel != "" || o.BatchSize > 0 {
		return errors.New("simulate: Topology excludes Kernel and BatchSize (the graph schedulers are per-step)")
	}
	return o.Topology.Validate()
}

// SetTopology decodes the topology run strings of the CLIs and ppserved (a
// topology name, its edge-selection policy and the crash/revive/join fault
// rates) into o.Topology. An empty name leaves Topology nil and then
// rejects a policy or a non-zero rate. Validate checks the rest.
func (o *Options) SetTopology(topology, policy string, crash, revive, join float64) error {
	if topology == "" {
		switch {
		case policy != "":
			return errors.New("simulate: an edge-selection policy requires a topology")
		case crash != 0 || revive != 0 || join != 0:
			return errors.New("simulate: Faults require a Topology (only the graph schedulers track individual agents)")
		}
		return nil
	}
	spec, err := sched.ParseTopologySpec(topology)
	if err != nil {
		return err
	}
	spec.Policy = policy
	spec.Crash, spec.Revive, spec.Join = crash, revive, join
	o.Topology = &spec
	return nil
}

func (o Options) maxSteps() int64 {
	if o.MaxSteps <= 0 {
		return 50_000_000
	}
	return o.MaxSteps
}

func (o Options) stableWindow() int64 {
	if o.StableWindow <= 0 {
		return 10_000
	}
	return o.StableWindow
}

func (o Options) quiescencePeriod() int64 {
	if o.QuiescencePeriod <= 0 {
		return 1_000
	}
	return o.QuiescencePeriod
}

func (o Options) batchSize() int64 {
	if o.BatchSize <= 0 {
		return defaultBatch
	}
	return o.BatchSize
}

// Result describes a completed run.
type Result struct {
	// Output is the consensus output at the end of the run.
	Output protocol.Output
	// Steps is the number of scheduler steps taken.
	Steps int64
	// EffectiveSteps counts steps that changed the configuration.
	EffectiveSteps int64
	// Quiescent reports whether the run ended with no enabled transition
	// (definite stabilisation) rather than by the heuristic window.
	Quiescent bool
	// ConvergenceStep is the first step of the final stable stretch: the
	// step after which the output never changed for the remainder of the
	// run. For runs that end via the quiescence check without the output
	// ever changing, it is the last effective step — the point at which
	// the configuration itself froze — since before that step the run had
	// not yet stabilised in the paper's configuration-level sense even
	// though the output happened to be constant. Under the batched fast
	// path it is reported at batch-boundary granularity.
	ConvergenceStep int64
	// Final is the final configuration.
	Final *multiset.Multiset
}

// ParallelTime returns the run length in units of "parallel time":
// interactions divided by population size, the standard measure (§1).
func (r *Result) ParallelTime() float64 {
	m := r.Final.Size()
	if m == 0 {
		return 0
	}
	return float64(r.Steps) / float64(m)
}

// Run executes p from configuration c (mutated in place) under s until a
// stabilisation criterion is met.
//
// When s implements sched.BatchScheduler, the batched driver advances it
// through StepN instead of stepping one interaction at a time; see
// Options.BatchSize for the exact semantics preserved.
func Run(p *protocol.Protocol, c *multiset.Multiset, s sched.Scheduler, opts Options) (*Result, error) {
	if c.Size() == 0 {
		return nil, fmt.Errorf("simulate: protocol %q: empty configuration", p.Name)
	}
	met := obs.Sim()
	if met != nil {
		met.RunsStarted.Inc()
	}
	res, err := run(p, c, s, opts)
	if met != nil && err == nil {
		met.RunsFinished.Inc()
		met.Convergence.Observe(res.ConvergenceStep)
		if res.Quiescent {
			met.Quiescent.Inc()
		}
	}
	return res, err
}

// definitelyStable reports whether the run can never change again. A
// scheduler carrying its own quiescence predicate (the topology schedulers:
// adjacency- and fault-aware) is authoritative — the multiset-level scan
// cannot see that two reactive states are held only by non-adjacent agents,
// nor that a crashed agent might revive. Every other scheduler falls back to
// the enabled-transition scan, which stops at the first enabled transition.
func definitelyStable(p *protocol.Protocol, c *multiset.Multiset, s sched.Scheduler) bool {
	if q, ok := s.(interface{ Quiescent() bool }); ok {
		return q.Quiescent()
	}
	return !p.AnyEnabled(c)
}

// perStep gives a scheduler without StepN the StepN of n single steps.
type perStep struct{ sched.Scheduler }

func (s perStep) StepN(c *multiset.Multiset, n int64) int64 {
	var eff int64
	for ; n > 0; n-- {
		if s.Step(c) {
			eff++
		}
	}
	return eff
}

// run is Run's loop: it advances the configuration in chunks of up to
// opts.BatchSize steps through StepN — by default 65,536, cut to 1,000 by
// the default quiescence period, or max(1,000, m/16) for a scheduler that
// states a PreferredChunk — truncating each chunk so that every
// QuiescencePeriod boundary is still observed, and evaluates the output
// heuristics at chunk boundaries. A scheduler without StepN runs one
// interaction per chunk, so it is observed after every interaction. A chunk
// with zero effective steps cannot have changed the output, so the
// stable-window accounting is exact across it; a chunk with effective steps
// contributes its full length to the window only when the output at both
// ends agrees (mid-batch output oscillation within one chunk is not
// observed — the documented batch-boundary semantics).
func run(p *protocol.Protocol, c *multiset.Multiset, s sched.Scheduler, opts Options) (*Result, error) {
	maxSteps := opts.maxSteps()
	window := opts.stableWindow()
	period := opts.quiescencePeriod()
	batch := int64(1)
	bs, ok := s.(sched.BatchScheduler)
	if ok {
		batch = opts.batchSize()
		// A scheduler can state population-scaled chunks: the collision
		// kernel and the hybrid want max(1,000, m/16) interactions —
		// 1/16 of a parallel-time unit — per chunk, since their rounds and
		// integration steps cannot span chunks. A stated chunk replaces
		// the default batch, and a default quiescence period follows it,
		// at every m. An explicit BatchSize always wins. The exact sampler
		// states none and keeps 1,000-interaction chunks.
		if pc, ok := s.(interface{ PreferredChunk(int64) int64 }); ok && opts.BatchSize <= 0 {
			batch = pc.PreferredChunk(c.Size())
			if opts.QuiescencePeriod <= 0 {
				period = batch
			}
		}
	} else {
		bs = perStep{s}
	}

	res := &Result{Final: c}
	lastOutput := p.OutputOf(c)
	var stableFor, lastEffective int64
	outputChanged := false

	for res.Steps < maxSteps {
		n := batch
		if r := period - res.Steps%period; r < n {
			n = r
		}
		if r := maxSteps - res.Steps; r < n {
			n = r
		}
		eff := bs.StepN(c, n)
		res.Steps += n
		res.EffectiveSteps += eff
		if eff > 0 {
			lastEffective = res.Steps
		}

		out := p.OutputOf(c)
		if out == lastOutput {
			stableFor += n
		} else {
			lastOutput = out
			stableFor = 0
			res.ConvergenceStep = res.Steps
			outputChanged = true
		}

		if out != protocol.OutputMixed && stableFor >= window {
			res.Output = out
			return res, nil
		}

		if res.Steps%period == 0 {
			if definitelyStable(p, c, s) {
				res.Output = out
				res.Quiescent = true
				if !outputChanged {
					// The output held its initial value throughout, but
					// the configuration kept evolving until its last
					// effective step; reporting 0 would under-report the
					// convergence point of a run that was still actively
					// computing.
					res.ConvergenceStep = lastEffective
				}
				return res, nil
			}
		}
	}
	res.Output = p.OutputOf(c)
	return res, fmt.Errorf("%w (protocol %q, %d steps, output %v)",
		ErrBudgetExhausted, p.Name, res.Steps, res.Output)
}

// ConvergenceStats summarises repeated runs of the same input.
type ConvergenceStats struct {
	Runs          int     `json:"runs"`
	WrongOutputs  int     `json:"wrong_outputs"`
	MeanSteps     float64 `json:"mean_steps"`
	MeanParallel  float64 `json:"mean_parallel"`
	MaxSteps      int64   `json:"max_steps"`
	MeanEffective float64 `json:"mean_effective"`
}

// convergenceRun performs the i-th repeated run of a measurement: a fresh
// scheduler from NewScheduler seeded with seed+i over a fresh initial
// configuration. Runs are independent, which is what lets the measurement
// functions fan them out over workers without changing any statistic.
func convergenceRun(p *protocol.Protocol, inputCounts []int64, i int, seed int64, opts Options) (*Result, error) {
	c, err := p.InitialConfig(inputCounts...)
	if err != nil {
		return nil, err
	}
	s, err := NewScheduler(p, sched.NewRand(seed+int64(i)), opts, c.Size())
	if err != nil {
		return nil, err
	}
	return Run(p, c, s, opts)
}

// measureRuns executes runs independent convergence runs, one par.Ordered
// task each on opts.Workers goroutines, and returns the per-run results in
// run order. A run starts only while no lower-numbered run has failed, so
// every run before the first failure executes and the returned error, the
// first in run order, is the same for every worker count.
func measureRuns(p *protocol.Protocol, inputCounts []int64, runs int, seed int64, opts Options) ([]*Result, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("simulate: runs must be positive, got %d", runs)
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	results := make([]*Result, runs)
	met := obs.Sim()
	i, err := par.Ordered(context.TODO(), runs, opts.Workers, func(_ context.Context, w, i int) error {
		var t0 time.Time
		if met != nil {
			t0 = time.Now()
		}
		res, err := convergenceRun(p, inputCounts, i, seed, opts)
		if met != nil {
			met.WorkerRuns.Add(w, 1)
			met.WorkerNanos.Add(w, time.Since(t0).Nanoseconds())
		}
		results[i] = res
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("run %d: %w", i, err)
	}
	return results, nil
}

// MeasureConvergence runs the protocol repeatedly from the same input, run
// i under a fresh NewScheduler(opts) seeded with seed+i, and aggregates
// interaction counts. expected is the output each run should stabilise to.
// Runs fan out over opts.Workers goroutines without changing any statistic,
// and a fixed (options, seed) pair is bit-reproducible. Different kernels'
// trajectories are statistically equivalent, not bit-identical (the
// differential tests in this package certify the equivalence).
func MeasureConvergence(p *protocol.Protocol, inputCounts []int64, expected bool, runs int, seed int64, opts Options) (*ConvergenceStats, error) {
	stats, _, err := MeasureConvergenceWithSamples(p, inputCounts, expected, runs, seed, opts)
	return stats, err
}

// MeasureConvergenceWithSamples is MeasureConvergence that also returns the
// per-run interaction counts from the same set of runs, so callers needing
// both the aggregate and the raw samples (ppsim's summaries, the serve
// package's job results) pay for the simulation once.
func MeasureConvergenceWithSamples(p *protocol.Protocol, inputCounts []int64, expected bool, runs int, seed int64, opts Options) (*ConvergenceStats, []float64, error) {
	results, err := measureRuns(p, inputCounts, runs, seed, opts)
	if err != nil {
		return nil, nil, err
	}
	stats := &ConvergenceStats{Runs: runs}
	samples := make([]float64, 0, runs)
	var totalSteps, totalEffective int64
	var totalParallel float64
	want := protocol.OutputFalse
	if expected {
		want = protocol.OutputTrue
	}
	for _, res := range results {
		if res.Output != want {
			stats.WrongOutputs++
		}
		totalSteps += res.Steps
		totalEffective += res.EffectiveSteps
		totalParallel += res.ParallelTime()
		if res.Steps > stats.MaxSteps {
			stats.MaxSteps = res.Steps
		}
		samples = append(samples, float64(res.Steps))
	}
	stats.MeanSteps = float64(totalSteps) / float64(runs)
	stats.MeanEffective = float64(totalEffective) / float64(runs)
	stats.MeanParallel = totalParallel / float64(runs)
	return stats, samples, nil
}
