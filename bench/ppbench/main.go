// Command ppbench is the repository's benchmark: four workloads that run
// the paper's pipeline from its inputs to a checked result, timed from
// outside the program.
//
//	verify    exact verdicts: parse → compile → explore every placement
//	build     source → protocol: parse → compile → one convert entry point
//	simulate  convergence runs on the exact, tau-leap and fluid tiers
//	serve     ppserved jobs over loopback HTTP from two closed-loop clients
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload W|all] [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-out DIR]
//	bash bench/run.sh compare A.json… -- B.json…
//
// Each workload sets itself up three times (fixtures plus one untimed
// warm-up op of every kind; setup_s is the median), then runs a fixed
// number of whole passes of its op list: as many as take -seconds on the
// reference box, and at least 100 ops. Every op checks its output; a wrong
// verdict, golden mismatch, wrong simulation output or failed job counts as
// a failed op and makes the command exit 1. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics, or with -trace 1 the per-layer metrics of a
// second, traced repeat of the same passes. Each run also writes a JSON
// record to -out, which `compare` reads; a traced run writes
// <workload>.spans.json there too. With -workload all, every workload runs
// in its own child process so memory and GC counts are per workload.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// traceFlag is a boolean flag that, unlike flag.Bool, takes its value as a
// separate argument: -trace 1, -trace 0.
type traceFlag bool

func (t *traceFlag) String() string { return strconv.FormatBool(bool(*t)) }

func (t *traceFlag) Set(s string) error {
	b, err := strconv.ParseBool(s)
	*t = traceFlag(b)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("ppbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload: verify | build | simulate | serve | all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 15, "timed wall per run on the reference box; sets the pass count")
	var trace traceFlag
	fs.Var(&trace, "trace", "1: repeat the timed passes traced and report per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny sizes and the fewest passes, to check the harness itself")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for run records and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "ppbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 0 {
		fmt.Fprintf(stderr, "ppbench: -seconds must be ≥ 0, got %g\n", *seconds)
		return 2
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		smoke:   *smoke,
		outDir:  *out,
	}
	if cfg.smoke {
		cfg.seconds = 0 // just enough passes for 100 ops
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "ppbench:", err)
		return 1
	}
	if *name == "all" {
		return runAll(cfg, bool(trace), stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "ppbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runOne(w, cfg, bool(trace), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "ppbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is a metric as printed on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// recordedMetric is a metric as kept in a run record.
type recordedMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// record is the JSON file a run leaves in the output directory.
type record struct {
	Workload  string                    `json:"workload"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Trace     bool                      `json:"trace"`
	Smoke     bool                      `json:"smoke"`
	Passes    int                       `json:"passes"`
	GoVersion string                    `json:"go_version"`
	NumCPU    int                       `json:"num_cpu"`
	Start     time.Time                 `json:"start"`
	Result    result                    `json:"result"`
	EndToEnd  map[string]recordedMetric `json:"end_to_end"`
	PerLayer  map[string]recordedMetric `json:"per_layer,omitempty"`
	// Kinds are the untraced latencies of each op kind.
	Kinds    map[string]kindStat `json:"kinds"`
	Failures []string            `json:"failures,omitempty"`
}

func collect(defs []metricDef, vals map[string]measured) (map[string]recordedMetric, error) {
	out := make(map[string]recordedMetric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = recordedMetric{Value: v.value, Unit: d.Unit, N: v.n}
	}
	return out, nil
}

// runOne runs one workload in this process, prints its tables and result
// line, and writes its record.
func runOne(w workload, cfg config, trace bool, stdout io.Writer) (*result, error) {
	start := time.Now().UTC()
	o, err := runWorkload(w, cfg, trace)
	if err != nil {
		return nil, err
	}
	e2e, err := endToEndValues(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec := &record{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		Smoke: cfg.smoke, Passes: len(o.base.passes), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), Start: start, Failures: o.failures,
	}
	if rec.EndToEnd, err = collect(endToEnd, e2e); err != nil {
		return nil, err
	}
	rec.Kinds = kindLatencies(o.base)
	var sum *spanSummary
	attempted := len(o.base.lat)
	shown := rec.EndToEnd
	if trace {
		var pl map[string]measured
		pl, sum = perLayerValues(o)
		if rec.PerLayer, err = collect(perLayer, pl); err != nil {
			return nil, err
		}
		attempted += len(o.traced.lat)
		shown = rec.PerLayer
	}
	rec.Result = result{
		Correct: len(o.failures) == 0, Attempted: attempted, Failed: len(o.failures),
		Metrics: make(map[string]metricValue, len(shown)),
	}
	for name, m := range shown {
		rec.Result.Metrics[name] = metricValue{Value: m.Value, Unit: m.Unit}
	}

	fmt.Fprintf(stdout, "%s: seed %d, %d passes, %d ops, %d failed (fail_ratio %s)\n",
		w.name, cfg.seed, len(o.base.passes), attempted, len(o.failures),
		formatValue(float64(len(o.failures))/float64(attempted)))
	for i, f := range o.failures {
		if i == 10 {
			fmt.Fprintf(stdout, "  … %d more failures\n", len(o.failures)-i)
			break
		}
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	printTable(stdout, "end-to-end (untraced)", endToEnd, rec.EndToEnd)
	if trace {
		printTable(stdout, "per-layer (traced)", perLayer, rec.PerLayer)
		if err := writeJSON(filepath.Join(cfg.outDir, w.name+".spans.json"), struct {
			Workload string       `json:"workload"`
			Seed     int64        `json:"seed"`
			Summary  *spanSummary `json:"summary"`
			Spans    []span       `json:"spans"`
		}{w.name, cfg.seed, sum, o.tr.spans}); err != nil {
			return nil, err
		}
	}
	name := fmt.Sprintf("%s-seed%d-%d.json", w.name, cfg.seed, start.UnixNano())
	if err := writeJSON(filepath.Join(cfg.outDir, name), rec); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return &rec.Result, nil
}

// kindStat is the latency distribution of one op kind, in ms.
type kindStat struct {
	N      int     `json:"n"`
	Median float64 `json:"median_ms"`
	Q1     float64 `json:"q1_ms"`
	Q3     float64 `json:"q3_ms"`
}

func kindLatencies(ph *phase) map[string]kindStat {
	by := map[string][]float64{}
	for i, k := range ph.kinds {
		by[k] = append(by[k], ph.lat[i])
	}
	out := make(map[string]kindStat, len(by))
	for k, xs := range by {
		q1, q3 := quartiles(xs)
		out[k] = kindStat{N: len(xs), Median: median(xs), Q1: q1, Q3: q3}
	}
	return out
}

func printTable(w io.Writer, title string, defs []metricDef, vals map[string]recordedMetric) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, d := range defs {
		m := vals[d.Name]
		fmt.Fprintf(w, "    %-32s %14s %-6s n=%d\n", d.Name, formatValue(m.Value), m.Unit, m.N)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own and ends with
// one combined result line whose metric names carry the workload prefix.
func runAll(cfg config, trace bool, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "ppbench:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-trace", strconv.FormatBool(trace), "-out", cfg.outDir}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		var buf bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, err := lastResult(buf.Bytes())
		if runErr != nil || err != nil {
			code = 1
			all.Correct = false
			if err != nil {
				fmt.Fprintf(stderr, "ppbench: %s: %v\n", w.name, errors.Join(runErr, err))
				continue
			}
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "ppbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}

// lastResult parses the result line a child printed last.
func lastResult(out []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
