// Command ppanalyze prints the static analysis of a population program:
// sizes, call graph, stack-depth bound, dead procedures, register usage,
// and the inlined-size ablation (§4's succinctness argument, quantified).
//
// Usage:
//
//	ppanalyze -target figure1
//	ppanalyze -target czerner:3
//	ppanalyze -program path/to/file.pop
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/popprog"
	"repro/internal/target"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole binary behind a testable seam: it returns the process
// exit code (0 ok, 1 failure, 2 flag-parse error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	targetName := fs.String("target", "figure1", "program to analyse: "+target.Help(target.Programs))
	programPath := fs.String("program", "", "path to a .pop program (overrides -target)")
	if err := fs.Parse(args); err != nil {
		return 2 // the flag package has already printed the error and usage
	}
	if err := analyze(stdout, *targetName, *programPath); err != nil {
		fmt.Fprintln(stderr, "ppanalyze:", err)
		return 1
	}
	return 0
}

func analyze(w io.Writer, name, programPath string) error {
	prog, err := loadProgram(name, programPath)
	if err != nil {
		return err
	}
	report, err := analysis.Analyze(prog)
	if err != nil {
		return err
	}
	inlined, err := analysis.InlinedInstructionCount(prog)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "program %s\n", prog.Name)
	fmt.Fprintf(w, "  size:                %d (registers %d + instructions %d + swap-size %d)\n",
		prog.Size(), len(prog.Registers), prog.InstructionCount(), prog.SwapSize())
	fmt.Fprintf(w, "  inlined size:        %d instructions (×%.1f)\n",
		inlined, float64(inlined)/float64(prog.InstructionCount()))
	fmt.Fprintf(w, "  max call depth:      %d frames\n", report.MaxCallDepth)
	fmt.Fprintf(w, "  procedures:          %d (%d dead)\n",
		len(prog.Procedures), len(report.DeadProcedures))
	if len(report.DeadProcedures) > 0 {
		names := make([]string, len(report.DeadProcedures))
		for i, d := range report.DeadProcedures {
			names[i] = prog.Procedures[d].Name
		}
		fmt.Fprintf(w, "  dead procedures:     %s\n", strings.Join(names, ", "))
	}
	fmt.Fprintln(w, "  register usage:")
	for i, use := range report.Registers {
		var flags []string
		if use.Detected {
			flags = append(flags, "detect")
		}
		if use.MovedFrom {
			flags = append(flags, "src")
		}
		if use.MovedTo {
			flags = append(flags, "dst")
		}
		if use.Swapped {
			flags = append(flags, "swap")
		}
		if use.Unused() {
			flags = append(flags, "UNUSED")
		}
		fmt.Fprintf(w, "    %-6s %s\n", prog.Registers[i], strings.Join(flags, ","))
	}
	fmt.Fprintln(w, "  call graph:")
	for i, callees := range report.CallGraph {
		if len(callees) == 0 {
			continue
		}
		names := make([]string, len(callees))
		for j, c := range callees {
			names[j] = prog.Procedures[c].Name
		}
		fmt.Fprintf(w, "    %-18s → %s\n", prog.Procedures[i].Name, strings.Join(names, ", "))
	}
	return nil
}

func loadProgram(name, programPath string) (*popprog.Program, error) {
	if programPath != "" {
		src, err := os.ReadFile(programPath)
		if err != nil {
			return nil, err
		}
		return popprog.Parse(string(src))
	}
	t, err := target.ParseKind(name, target.Programs)
	if err != nil {
		return nil, err
	}
	b, err := t.Build()
	if err != nil {
		return nil, err
	}
	return b.Program, nil
}
