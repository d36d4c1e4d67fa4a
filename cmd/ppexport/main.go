// Command ppexport renders the repository's objects in exchange formats:
// Graphviz DOT for protocol structures, machine control-flow graphs and
// reachability graphs, and CSV for convergence traces.
//
// Usage:
//
//	ppexport -what protocol  -target majority                > majority.dot
//	ppexport -what machine   -target figure1                 > figure1-cfg.dot
//	ppexport -what machine   -target czerner:2               > construction.dot
//	ppexport -what reach     -target majority -input 2,1     > reach.dot
//	ppexport -what trace     -target majority -input 60,40   > trace.csv
//
// -what machine takes a population-program target; the other exports take a
// protocol target.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/compile"
	"repro/internal/export"
	"repro/internal/multiset"
	"repro/internal/sched"
	"repro/internal/simulate"
	"repro/internal/target"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: it returns the process
// exit code (0 ok, 1 failure, 2 flag-parse error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppexport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	what := fs.String("what", "protocol", "what to export: protocol | machine | reach | trace")
	targetName := fs.String("target", "majority",
		"what to export (-what machine takes a program, the rest a protocol): "+target.Help(target.All))
	input := fs.String("input", "", "comma-separated input counts (reach/trace)")
	seed := fs.Int64("seed", 1, "PRNG seed (trace)")
	maxStates := fs.Int("max-states", 500, "reachability graph size cap")
	period := fs.Int64("period", 100, "trace sampling period")
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already printed the error and usage
	}
	if err := exportTo(stdout, *what, *targetName, *input, *seed, *maxStates, *period); err != nil {
		fmt.Fprintln(stderr, "ppexport:", err)
		return 1
	}
	return 0
}

func exportTo(w io.Writer, what, name, input string, seed int64, maxStates int, period int64) error {
	kind := target.Protocols
	switch what {
	case "machine":
		kind = target.Programs
	case "protocol", "reach", "trace":
	default:
		return fmt.Errorf("unknown -what %q", what)
	}
	t, err := target.ParseKind(name, kind)
	if err != nil {
		return err
	}
	b, err := t.Build()
	if err != nil {
		return err
	}
	p := b.Protocol
	switch what {
	case "machine":
		m, err := compile.Compile(b.Program)
		if err != nil {
			return err
		}
		return export.MachineDOT(w, m)
	case "protocol":
		return export.ProtocolDOT(w, p)
	}
	counts, err := parseCounts(input, len(p.Input))
	if err != nil {
		return err
	}
	c, err := p.InitialConfig(counts...)
	if err != nil {
		return err
	}
	if what == "reach" {
		return export.ReachabilityDOT(w, p, []*multiset.Multiset{c}, maxStates)
	}
	var opts simulate.Options
	s, err := simulate.NewScheduler(p, sched.NewRand(seed), opts, c.Size())
	if err != nil {
		return err
	}
	_, trace, err := simulate.RunTraced(p, counts, s, period, opts)
	if err != nil {
		return err
	}
	return export.TraceCSV(w, trace)
}

func parseCounts(s string, want int) ([]int64, error) {
	if s == "" {
		return nil, errors.New("-input is required for this export")
	}
	parts := strings.Split(s, ",")
	if len(parts) != want {
		return nil, fmt.Errorf("need %d input counts, got %d", want, len(parts))
	}
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
