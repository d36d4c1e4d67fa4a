// Command ppverify runs the exact, exhaustive verifications: it model-checks
// stable computation (bottom-SCC analysis under global fairness) for the
// repository's protocols and for the paper's construction compiled down to
// population machines.
//
// Usage:
//
//	ppverify [-max-agents N]
//	         [-targets majority,unary,binary,remainder,product,figure1,czerner1,equality1]
//	         [-mem-budget B] [-spill-dir DIR]
//	         [-metrics] [-metrics-interval D] [-pprof ADDR]
//
// -mem-budget caps the resident bytes of the explorer's variable-size
// structure, the interner's key log that every BFS level is read from, for
// protocol and machine targets alike; beyond it sealed log segments spill
// to -spill-dir (default the system temp directory) and are read back.
// The reachable graph's edge arrays and the bottom-SCC analysis stay in RAM
// (about 8 bytes per state plus 4 per edge, and 12 per state), so that is
// what bounds a run under a budget. Results — verdicts, witnesses, error
// points — are bit-identical to the all-RAM run for any budget. -metrics prints a JSON telemetry snapshot
// (exploration levels, frontier widths, states/sec, interner occupancy,
// spill volume) to stderr on exit; -metrics-interval emits periodic
// snapshot lines while a verification is running; -pprof serves
// net/http/pprof and expvar for live profiling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/obs/obsflag"
	"repro/internal/popmachine"
	"repro/internal/protocol"
	"repro/internal/target"
)

// suites maps each verification suite to the registry targets it checks.
// The remainder suite adds x ≡ 1 (mod 3) and product checks ge3-and-even;
// neither is a registry target, so they keep their own builders below.
var suites = map[string][]string{
	"majority":  {"majority"},
	"unary":     {"unary:1", "unary:2", "unary:3", "unary:4"},
	"binary":    {"binary:0", "binary:1", "binary:2"},
	"remainder": {"remainder:2"},
	"product":   nil,
	"figure1":   {"figure1"},
	"czerner1":  {"czerner:1"},
	"equality1": {"equality:1"},
}

// allSuites is the default -targets value: every suite.
const allSuites = "majority,unary,binary,remainder,product,figure1,czerner1,equality1"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: it returns the process
// exit code (0 all verified, 1 failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxAgents := fs.Int64("max-agents", 5, "largest population size to verify exhaustively")
	targets := fs.String("targets", allSuites, "comma-separated verification suites")
	memBudget := fs.Int64("mem-budget", 0,
		"resident-byte budget for exploration; spill to disk beyond it (0 = all in RAM)")
	spillDir := fs.String("spill-dir", "",
		"directory for explorer spill files (default the system temp directory)")
	telemetry := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already printed the error and usage
	}
	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "ppverify:", err)
		fs.Usage()
		return 2
	}
	if *memBudget < 0 {
		return usageErr(fmt.Errorf("-mem-budget must be ≥ 0, got %d", *memBudget))
	}
	exOpts := explore.Options{MemBudget: *memBudget, SpillDir: *spillDir}

	stopTelemetry, err := telemetry.Start(stderr)
	if err != nil {
		return usageErr(err)
	}
	defer stopTelemetry()

	for _, suite := range strings.Split(*targets, ",") {
		suite = strings.TrimSpace(suite)
		names, ok := suites[suite]
		if !ok {
			fmt.Fprintf(stderr, "ppverify: unknown target %q\n", suite)
			return 1
		}
		start := time.Now()
		err := verifySuite(suite, names, *maxAgents, exOpts)
		if err != nil {
			fmt.Fprintf(stdout, "%-10s FAILED: %v\n", suite, err)
			fmt.Fprintf(stderr, "ppverify: verification failed for %s\n", suite)
			return 1
		}
		fmt.Fprintf(stdout, "%-10s verified exactly (all fair runs, all inputs ≤ %d agents) in %v\n",
			suite, *maxAgents, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

func verifySuite(suite string, names []string, maxAgents int64, opts explore.Options) error {
	for _, name := range names {
		if err := verifyTarget(name, maxAgents, opts); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	switch suite {
	case "remainder":
		p, err := baseline.Remainder(3, 1)
		if err != nil {
			return err
		}
		if err := explore.CheckDecidesParallel(p, baseline.RemainderPredicate(3, 1),
			1, maxAgents, 1, opts); err != nil {
			return fmt.Errorf("x ≡ 1 (mod 3): %w", err)
		}
	case "product":
		return verifyProduct(maxAgents, opts)
	}
	return nil
}

// verifyTarget checks a registry target against its registered predicate:
// protocols directly, programs compiled down to population machines.
func verifyTarget(name string, maxAgents int64, opts explore.Options) error {
	t, err := target.Parse(name)
	if err != nil {
		return err
	}
	b, err := t.Build()
	if err != nil {
		return err
	}
	if b.Protocol != nil {
		return explore.CheckDecidesParallel(b.Protocol, b.Predicate, 1, maxAgents, runtime.NumCPU(), opts)
	}
	m, err := compile.Compile(b.Program)
	if err != nil {
		return err
	}
	return verifyMachine(m, b.Predicate, maxAgents, opts)
}

// verifyMachine model-checks a compiled program: for every placement of
// every total ≤ maxAgents, all fair runs stabilise to pred([total]). A
// -mem-budget takes effect on the engine; results are bit-identical for any
// worker count and budget.
func verifyMachine(m *popmachine.Machine, pred protocol.Predicate, maxAgents int64, opts explore.Options) error {
	sys := popmachine.System{M: m}
	opts.MaxStates = 8_000_000
	for total := int64(1); total <= maxAgents; total++ {
		want := pred([]int64{total})
		var initial []*popmachine.Config
		var buildErr error
		multiset.Enumerate(len(m.Registers), total, func(regs *multiset.Multiset) {
			cfg, err := m.InitialConfig(regs)
			if err != nil {
				buildErr = err
				return
			}
			initial = append(initial, cfg)
		})
		if buildErr != nil {
			return buildErr
		}
		res, err := explore.ExploreParallel[*popmachine.Config](sys, initial, opts)
		if err != nil {
			return fmt.Errorf("total=%d: %w", total, err)
		}
		if !res.StabilisesTo(want) {
			return fmt.Errorf("total=%d: outcomes %v, want all %v", total, res.Outcomes, want)
		}
	}
	return nil
}

func verifyProduct(maxAgents int64, opts explore.Options) error {
	th, err := baseline.UnaryThreshold(3)
	if err != nil {
		return err
	}
	rem, err := baseline.Remainder(2, 0)
	if err != nil {
		return err
	}
	prod, err := protocol.Product("ge3-and-even", th, rem, protocol.OpAnd)
	if err != nil {
		return err
	}
	pred := protocol.ProductPredicate(
		baseline.ThresholdPredicate(3), baseline.RemainderPredicate(2, 0), protocol.OpAnd)
	return explore.CheckDecidesParallel(prod, pred, 1, maxAgents, runtime.NumCPU(), opts)
}
