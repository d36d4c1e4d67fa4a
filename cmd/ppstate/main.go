// Command ppstate prints the state-complexity comparison (Table 1 of the
// paper, experiment E1): measured protocol state counts of the unary,
// binary and double-exponential threshold constructions for each threshold
// k(n) of the paper's family.
//
// Usage:
//
//	ppstate [-n max]
//	ppstate -opt [-opt-full L]
//	ppstate -opt-report [-opt-full L]
//
// -opt additionally renders the shrink pipeline's before/after accounting
// (experiment E17): what every machine- and protocol-level optimization
// pass removed across the Table 1 family, against the Prop. 14/16 budgets.
// -opt-report instead prints the same accounting machine-readably, as a
// JSON array of convert.OptReport values. Both honour -opt-full L, which
// materialises full protocols — actual before/after |T|, not just state
// counts — for construction levels up to L (default 1; 0 counts only).
//
// Telemetry: -metrics prints a JSON snapshot (including the shrink
// pipeline's opt counters) to stderr on exit; -metrics-interval and -pprof
// behave as in ppsim.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs/obsflag"
	"repro/internal/target"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: it parses and validates
// args, executes, and returns the process exit code (0 ok, 1 runtime
// failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppstate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxN := fs.Int("n", 8, fmt.Sprintf("largest construction level n to tabulate (at most %d)", target.MaxLevels))
	opt := fs.Bool("opt", false,
		"additionally render the shrink pipeline's before/after table (E17)")
	optReport := fs.Bool("opt-report", false,
		"print the shrink accounting as a JSON array of OptReports instead of tables")
	optFull := fs.Int("opt-full", 1,
		"materialise full protocols (before/after |T|) for construction levels up to this (0 = count states only); only used with -opt or -opt-report")
	telemetry := obsflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already printed the error and usage
	}

	usageErr := func(err error) int {
		fmt.Fprintln(stderr, "ppstate:", err)
		fs.Usage()
		return 2
	}
	switch {
	case *maxN < 1 || *maxN > target.MaxLevels:
		return usageErr(fmt.Errorf("-n must be in [1, %d], got %d", target.MaxLevels, *maxN))
	case *optFull < 0:
		return usageErr(fmt.Errorf("-opt-full must be ≥ 0, got %d", *optFull))
	case fs.NArg() > 0:
		return usageErr(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	stopTelemetry, err := telemetry.Start(stderr)
	if err != nil {
		return usageErr(err)
	}
	defer stopTelemetry()

	fail := func(err error) int {
		fmt.Fprintln(stderr, "ppstate:", err)
		return 1
	}
	if *optReport {
		reports, err := experiments.ShrinkReports(*maxN, *optFull)
		if err != nil {
			return fail(err)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return fail(err)
		}
		return 0
	}
	t, err := experiments.Table1(*maxN)
	if err != nil {
		return fail(err)
	}
	if err := t.Render(stdout); err != nil {
		return fail(err)
	}
	if *opt {
		st, err := experiments.Shrink(*maxN, *optFull)
		if err != nil {
			return fail(err)
		}
		if err := st.Render(stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}
