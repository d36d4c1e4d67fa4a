// Command ppexperiments runs every experiment of the reproduction (E1–E16,
// see DESIGN.md) and prints the regenerated tables.
//
// Usage:
//
//	ppexperiments [-markdown] [-quick] [-seed N] [-batch N] [-kernel K] [-workers W]
//	              [-explore-workers W] [-mem-budget B] [-spill-dir DIR] [-topology-m M]
//	              [-metrics] [-metrics-interval D] [-pprof ADDR]
//
// -quick shrinks every sweep to its smallest meaningful size (useful for
// smoke tests); -markdown emits the tables in the format EXPERIMENTS.md
// embeds. -kernel selects the convergence experiment's interaction kernel
// (exact | batch | auto, default exact — see ppsim),
// -batch its chunk size (0 = 65,536) and -workers its run-level worker pool.
// -explore-workers
// sets the frontier-expansion worker count of the parallel model checker
// used by the exhaustive checks (0 = one per CPU); every table is
// bit-identical for any value. -mem-budget caps the checker's resident
// bytes — beyond it the interner key log spills to -spill-dir (default the
// system temp directory) and is read back, still bit-identically (0 = all
// in RAM). -topology-m sizes the population of the
// topology-convergence sweep (E16).
//
// Telemetry: -metrics prints a JSON snapshot of the scheduler, runner and
// explorer counters to stderr on exit; -metrics-interval emits periodic
// snapshot lines so long explorations show live progress (frontier widths,
// states/sec, interner occupancy); -pprof serves net/http/pprof and expvar.
// Telemetry is read-only: the emitted tables are byte-identical with and
// without it (pinned by a differential test in internal/experiments).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/obs/obsflag"
	"repro/internal/simulate"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: it parses and validates
// args, executes, and returns the process exit code (0 ok, 1 runtime
// failure, 2 usage error — invalid flag values print the error followed by
// the usage text).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppexperiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	quick := fs.Bool("quick", false, "small sweeps for a fast smoke run")
	seed := fs.Int64("seed", 1, "seed for randomised experiments")
	batch := fs.Int64("batch", 0,
		"chunk size of the convergence experiment's kernel driver (0 = 65536)")
	kernel := fs.String("kernel", "",
		"interaction kernel for the convergence experiment: "+simulate.KernelUsage()+" (empty = exact)")
	workers := fs.Int("workers", 1,
		"worker goroutines for the convergence experiment's runs")
	exploreWorkers := fs.Int("explore-workers", 0,
		"frontier-expansion workers for the exhaustive model checks (0 = one per CPU)")
	memBudget := fs.Int64("mem-budget", 0,
		"resident-byte budget for the exhaustive model checks; spill to disk beyond it (0 = all in RAM)")
	spillDir := fs.String("spill-dir", "",
		"directory for explorer spill files (default the system temp directory)")
	topologyM := fs.Int64("topology-m", 0,
		"population size for the topology-convergence experiment (0 = default 16)")
	telemetry := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already printed the error and usage
	}

	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "ppexperiments:", err)
		fs.Usage()
		return 2
	}
	switch {
	case *workers < 1:
		return usageErr(fmt.Errorf("-workers must be ≥ 1, got %d", *workers))
	case *exploreWorkers < 0:
		return usageErr(fmt.Errorf("-explore-workers must be ≥ 0, got %d", *exploreWorkers))
	case *memBudget < 0:
		return usageErr(fmt.Errorf("-mem-budget must be ≥ 0, got %d", *memBudget))
	case *topologyM < 0:
		return usageErr(fmt.Errorf("-topology-m must be ≥ 0, got %d", *topologyM))
	}
	convergence := simulate.Options{BatchSize: *batch, Kernel: *kernel, Workers: *workers}
	if err := convergence.Validate(); err != nil {
		return usageErr(err)
	}
	stopTelemetry, err := telemetry.Start(stderr)
	if err != nil {
		return usageErr(err)
	}
	defer stopTelemetry()

	cfg := experiments.Config{Seed: *seed}
	if *quick {
		cfg = experiments.Config{
			Table1MaxN:        4,
			Figure1MaxTotal:   6,
			Figure1Exact:      false,
			Theorem3MaxN:      5,
			Theorem3SweepMaxN: 1,
			Theorem5MaxN:      4,
			ConvergenceSizes:  []int64{16, 32},
			ConvergenceRuns:   3,
			Seed:              *seed,
		}
	}
	cfg.Convergence = convergence
	cfg.Explore = explore.Options{Workers: *exploreWorkers, MemBudget: *memBudget, SpillDir: *spillDir}
	cfg.TopologyM = *topologyM

	tables, err := experiments.All(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "ppexperiments:", err)
		return 1
	}
	for _, t := range tables {
		if *markdown {
			err = t.Markdown(stdout)
		} else {
			err = t.Render(stdout)
		}
		if err != nil {
			fmt.Fprintln(stderr, "ppexperiments:", err)
			return 1
		}
	}
	return 0
}
