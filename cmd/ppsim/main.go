// Command ppsim simulates the repository's protocols and programs.
//
// Usage:
//
//	ppsim -target majority -input 12,5
//	ppsim -target unary:9 -input 11
//	ppsim -target binary:4 -input 20
//	ppsim -target figure1 -input 5
//	ppsim -target czerner:2 -input 10
//	ppsim -target equality:2 -input 10
//	ppsim -program path/to/file.pop -input 5
//
// Protocol targets (majority, unary:k, binary:j, remainder:m) run under the
// uniform random-pair scheduler (-scheduler pair, the default) and report
// interactions and parallel time. -kernel selects the sampler of that law:
// exact (the default: per-interaction law with geometric null skipping),
// batch (the count-based collision kernel advancing whole tau-leap rounds —
// the large-n fast path), or auto (the full simulation ladder: exact below
// 4096 agents, tau-leap rounds up to 65,536, then the hybrid fluid/discrete
// ladder, which integrates the mean-field ODE while every consumed species
// holds at least 2¹⁴ agents — the only kernel that reaches m = 10¹²⁺). Every
// kernel advances in chunks of -batch steps (0 = 65,536), and the
// stabilisation checks run at chunk boundaries. -scheduler fair instead
// fires a uniformly random enabled transition each step. -window and
// -qperiod override the stable-window and quiescence-check lengths for
// large-n runs. -runs R repeats the run R times with seeds seed..seed+R-1
// and reports convergence summary statistics, optionally in parallel with
// -workers W (results are identical for any worker count).
// -topology restricts interactions to a graph (clique, ring, grid[:RxC],
// powerlaw[:k]) driven per-step by an edge-selection policy chosen with
// -topo-policy (random, roundrobin, starvation, adversary); -crash, -revive
// and -join enable per-step agent fault injection on topology runs.
// Program targets (figure1, czerner:n, equality:n, or a .pop file given
// with -program) run the population-program interpreter with a seeded
// random oracle and report the stabilised output flag, steps and restarts;
// they reject every flag above that only protocol targets read.
//
// Telemetry: -metrics prints a JSON snapshot of the scheduler/runner
// counters to stderr on exit, -metrics-interval emits periodic snapshot
// lines while running, and -pprof serves net/http/pprof and expvar for live
// profiling. Telemetry is read-only: simulation output is byte-identical
// with and without it.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/obs/obsflag"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
	"repro/internal/simulate"
	"repro/internal/target"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: it parses and validates
// args, executes, and returns the process exit code (0 ok, 1 runtime
// failure, 2 usage error — invalid flag values print the error followed by
// the usage text).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targetName := fs.String("target", "majority",
		"what to simulate: "+target.Help(target.All))
	programPath := fs.String("program", "", "path to a .pop population program (overrides -target)")
	input := fs.String("input", "", "comma-separated input counts (protocols) or a total (programs)")
	seed := fs.Int64("seed", 1, "PRNG seed")
	budget := fs.Int64("budget", 0, "step budget (0 = default)")
	scheduler := fs.String("scheduler", "pair",
		"protocol scheduler: pair (uniform random pairs, sampled by -kernel) | fair (uniformly random enabled transition)")
	batch := fs.Int64("batch", 0, "chunk size of the -kernel driver for protocol targets (0 = 65536)")
	kernel := fs.String("kernel", "",
		"interaction kernel of the pair scheduler for protocol targets: "+simulate.KernelUsage()+" (empty = exact)")
	window := fs.Int64("window", 0, "stable-window length for protocol targets (0 = default 10000)")
	qperiod := fs.Int64("qperiod", 0, "quiescence-check period for protocol targets (0 = default 1000)")
	runs := fs.Int("runs", 1, "repeat protocol runs this many times (seeds seed..seed+runs-1) and report summary statistics")
	workers := fs.Int("workers", 1, "worker goroutines for -runs > 1 (results are identical for any worker count)")
	topology := fs.String("topology", "",
		"restrict interactions to a graph for protocol targets: clique | ring | grid[:RxC] | powerlaw[:k] (per-step; excludes -kernel/-batch)")
	topoPolicy := fs.String("topo-policy", "",
		"edge-selection policy for -topology: random | roundrobin | starvation | adversary (default random)")
	crash := fs.Float64("crash", 0, "per-step agent crash probability for -topology runs")
	revive := fs.Float64("revive", 0, "per-step revive probability for crashed agents (-topology runs)")
	join := fs.Float64("join", 0, "per-step join probability; new agents enter the protocol's first state (-topology runs)")
	telemetry := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already printed the error and usage
	}

	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "ppsim:", err)
		fs.Usage()
		return 2
	}
	so := simOptions{
		scheduler: *scheduler,
		seed:      *seed,
		runs:      *runs,
		Options: simulate.Options{
			MaxSteps:         *budget,
			StableWindow:     *window,
			QuiescencePeriod: *qperiod,
			BatchSize:        *batch,
			Kernel:           *kernel,
			Workers:          *workers,
		},
	}
	if err := so.SetTopology(*topology, *topoPolicy, *crash, *revive, *join); err != nil {
		return usageErr(err)
	}
	switch {
	case *runs < 1:
		return usageErr(fmt.Errorf("-runs must be ≥ 1, got %d", *runs))
	case *workers < 1:
		return usageErr(fmt.Errorf("-workers must be ≥ 1, got %d", *workers))
	case *scheduler != "pair" && *scheduler != "fair":
		return usageErr(fmt.Errorf("unknown -scheduler %q (want pair | fair)", *scheduler))
	case *kernel != "" && *scheduler == "fair":
		return usageErr(errors.New("-kernel only applies to the pair scheduler, not fair"))
	case so.Topology != nil && *scheduler != "pair":
		return usageErr(errors.New("-topology replaces -scheduler (leave it at the default)"))
	case *input == "":
		return usageErr(errors.New("-input is required"))
	}
	if err := so.Validate(); err != nil {
		return usageErr(err)
	}
	var t target.Target
	if *programPath == "" {
		var err error
		if t, err = target.Parse(*targetName); err != nil {
			fmt.Fprintln(stderr, "ppsim:", err)
			return 1
		}
	}
	if *programPath != "" || t.Kind() == target.Programs {
		// -topo-policy, -crash, -revive and -join are rejected above
		// without -topology.
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-kernel", *kernel != ""}, {"-batch", *batch != 0}, {"-window", *window != 0},
			{"-qperiod", *qperiod != 0}, {"-runs", *runs > 1}, {"-workers", *workers > 1},
			{"-topology", *topology != ""}, {"-scheduler fair", *scheduler == "fair"},
		} {
			if f.set {
				return usageErr(fmt.Errorf("%s applies only to protocol targets", f.name))
			}
		}
	}
	stopTelemetry, err := telemetry.Start(stderr)
	if err != nil {
		return usageErr(err)
	}
	defer stopTelemetry()

	counts, err := parseCounts(*input)
	if err != nil {
		fmt.Fprintln(stderr, "ppsim:", err)
		return 1
	}
	if err := dispatch(stdout, *targetName, t, *programPath, counts, so); err != nil {
		fmt.Fprintln(stderr, "ppsim:", err)
		return 1
	}
	return 0
}

// dispatch builds the parsed target t (or reads the -program file) and
// routes to the protocol or program simulation path.
func dispatch(w io.Writer, name string, t target.Target, programPath string, counts []int64, so simOptions) error {
	if programPath != "" {
		src, err := os.ReadFile(programPath)
		if err != nil {
			return err
		}
		prog, err := popprog.Parse(string(src))
		if err != nil {
			return err
		}
		if len(counts) != 1 {
			return errors.New("-program needs -input m (a single total)")
		}
		return simulateProgram(w, prog, counts[0], so.seed, so.MaxSteps, popprog.DecideOptions{})
	}
	b, err := t.Build()
	if err != nil {
		return err
	}
	if b.Protocol != nil {
		if len(counts) != len(b.Protocol.Input) {
			return fmt.Errorf("%s needs -input with %d count(s), got %d", name, len(b.Protocol.Input), len(counts))
		}
		return simulateProtocol(w, b.Protocol, b.Predicate, counts, so)
	}
	if len(counts) != 1 {
		return fmt.Errorf("%s needs -input m (a single total)", name)
	}
	var opts popprog.DecideOptions
	if c := b.Construction; c != nil {
		fmt.Fprintf(w, "construction: n=%d, threshold k=%s, program size %d\n",
			c.Levels, c.K, c.Program.Size())
		opts = popprog.DecideOptions{TruthProb: 0.85, RestartHint: c.RestartHint(), HintProb: 0.3}
	}
	return simulateProgram(w, b.Program, counts[0], so.seed, so.MaxSteps, opts)
}

func parseCounts(s string) ([]int64, error) {
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("input %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}

// simOptions collects the simulation knobs of the CLI: the validated run
// options plus the scheduler choice (pair or fair), seed and repetition
// count.
type simOptions struct {
	simulate.Options
	scheduler string
	seed      int64
	runs      int
}

// simulateProtocol runs p once, or so.runs times for summary statistics;
// pred is the predicate p decides, the expected output of every run.
func simulateProtocol(w io.Writer, p *protocol.Protocol, pred protocol.Predicate, counts []int64, so simOptions) error {
	if so.runs > 1 && so.scheduler == "fair" {
		return errors.New("-runs > 1 only supports the pair scheduler")
	}
	c, err := p.InitialConfig(counts...)
	if err != nil {
		return err
	}
	if so.runs > 1 {
		_, samples, err := simulate.MeasureConvergenceWithSamples(p, counts, pred(counts), so.runs, so.seed, so.Options)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "protocol:      %s (%d states, %d transitions)\n",
			p.Name, p.NumStates(), len(p.Transitions))
		fmt.Fprintf(w, "input:         %v (m = %d)\n", counts, c.Size())
		fmt.Fprintf(w, "runs:          %d (workers %d, batch %d)\n", so.runs, so.Workers, so.BatchSize)
		if so.Kernel != "" {
			fmt.Fprintf(w, "kernel:        %s\n", so.Kernel)
		}
		printTopology(w, so.Options)
		fmt.Fprintf(w, "interactions:  %v\n", simulate.Summarise(samples))
		return nil
	}
	rng := sched.NewRand(so.seed)
	var s sched.Scheduler
	if so.scheduler == "fair" {
		s = sched.NewTransitionFair(p, rng)
	} else if s, err = simulate.NewScheduler(p, rng, so.Options, c.Size()); err != nil {
		return err
	}
	res, err := simulate.Run(p, c, s, so.Options)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "protocol:      %s (%d states, %d transitions)\n",
		p.Name, p.NumStates(), len(p.Transitions))
	fmt.Fprintf(w, "input:         %v (m = %d)\n", counts, res.Final.Size())
	if so.Kernel != "" {
		fmt.Fprintf(w, "kernel:        %s\n", so.Kernel)
	}
	printTopology(w, so.Options)
	fmt.Fprintf(w, "output:        %v\n", res.Output)
	fmt.Fprintf(w, "interactions:  %d (%d effective)\n", res.Steps, res.EffectiveSteps)
	fmt.Fprintf(w, "parallel time: %.1f\n", res.ParallelTime())
	fmt.Fprintf(w, "quiescent:     %v\n", res.Quiescent)
	return nil
}

// printTopology reports the interaction-graph restriction, if any.
func printTopology(w io.Writer, opts simulate.Options) {
	if opts.Topology == nil {
		return
	}
	ts := opts.Topology
	policy := ts.Policy
	if policy == "" {
		policy = sched.PolicyRandom
	}
	fmt.Fprintf(w, "topology:      %s (policy %s)\n", ts.Kind, policy)
	if ts.Crash != 0 || ts.Revive != 0 || ts.Join != 0 {
		fmt.Fprintf(w, "faults:        crash %g, revive %g, join %g\n", ts.Crash, ts.Revive, ts.Join)
	}
}

func simulateProgram(w io.Writer, prog *popprog.Program, total, seed, budget int64, opts popprog.DecideOptions) error {
	opts.Seed = seed
	opts.Budget = budget
	res, err := popprog.DecideTotal(prog, total, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "program:  %s (size %d: %d registers, %d instructions, swap-size %d)\n",
		prog.Name, prog.Size(), len(prog.Registers), prog.InstructionCount(), prog.SwapSize())
	fmt.Fprintf(w, "total:    %d agents\n", total)
	fmt.Fprintf(w, "output:   %v\n", res.Output)
	fmt.Fprintf(w, "steps:    %d\n", res.Steps)
	fmt.Fprintf(w, "restarts: %d\n", res.Restarts)
	fmt.Fprintf(w, "halted:   %v\n", res.Halted)
	return nil
}
