package main

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/obs"
	"repro/internal/popprog"
)

func TestParseCounts(t *testing.T) {
	got, err := parseCounts("12, 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 12 || got[1] != 5 {
		t.Fatalf("parseCounts = %v", got)
	}
	if _, err := parseCounts("1,x"); err == nil {
		t.Fatal("accepted a non-numeric count")
	}
}

func TestSimulatePathsSmoke(t *testing.T) {
	// Drive the protocol and program paths end to end.
	p, err := baseline.Majority()
	if err != nil {
		t.Fatal(err)
	}
	pred := baseline.MajorityPredicate
	base := simOptions{scheduler: "pair", seed: 1, runs: 1}
	base.Workers = 1
	if err := simulateProtocol(io.Discard, p, pred, []int64{6, 3}, base); err != nil {
		t.Fatal(err)
	}
	fair := base
	fair.scheduler = "fair"
	if err := simulateProtocol(io.Discard, p, pred, []int64{6, 3}, fair); err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.BatchSize = 64
	if err := simulateProtocol(io.Discard, p, pred, []int64{6, 3}, batched); err != nil {
		t.Fatal(err)
	}
	multi := base
	multi.runs = 4
	multi.Workers = 2
	multi.BatchSize = 32
	if err := simulateProtocol(io.Discard, p, pred, []int64{6, 3}, multi); err != nil {
		t.Fatal(err)
	}
	multiFair := multi
	multiFair.scheduler = "fair"
	multiFair.BatchSize = 0
	if err := simulateProtocol(io.Discard, p, pred, []int64{6, 3}, multiFair); err == nil {
		t.Fatal("accepted -runs > 1 with the fair scheduler")
	}
	if err := simulateProgram(io.Discard, popprog.Figure1Program(), 5, 1, 300_000,
		popprog.DecideOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, kernel := range []string{"exact", "batch", "auto"} {
		k := base
		k.Kernel = kernel
		if err := simulateProtocol(io.Discard, p, pred, []int64{9000, 7400}, k); err != nil {
			t.Fatalf("kernel %q: %v", kernel, err)
		}
		k.runs = 3
		k.Workers = 2
		if err := simulateProtocol(io.Discard, p, pred, []int64{9000, 7400}, k); err != nil {
			t.Fatalf("kernel %q, multi-run: %v", kernel, err)
		}
	}
}

// TestRunKernelFlag drives the -kernel flag end to end and pins that the
// batch kernel's output is deterministic for a fixed seed.
func TestRunKernelFlag(t *testing.T) {
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-target", "majority", "-input", "80,41", "-seed", "9",
			"-kernel", "batch", "-window", "200", "-qperiod", "500"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit code = %d\nstderr: %s", code, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "output:") {
			t.Fatalf("missing output line:\n%s", out)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("batch kernel output not reproducible:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, out)
		}
	}
}

// TestRunFluidLadderTrillion drives the simulation ladder end to end from
// the CLI: majority at m = 10¹² through -kernel auto (forced-fluid regime),
// finishing with the exact majority answer.
func TestRunFluidLadderTrillion(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-target", "majority", "-input", "550000000000,450000000000",
		"-seed", "3", "-kernel", "auto", "-budget", "4611686018427387904"},
		&stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "output:        true") {
		t.Fatalf("m = 10¹² majority did not decide true:\n%s", out)
	}
	if !strings.Contains(out, "kernel:        auto") {
		t.Fatalf("missing kernel line:\n%s", out)
	}
}

// TestRunFlagValidation pins the CLI contract: invalid flag values exit
// non-zero with an error plus the usage text — no panic, no silent clamp.
// run() is main() minus os.Exit, so the returned code is the exit code.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantErr  string // substring of stderr
	}{
		{"zero runs", []string{"-target", "majority", "-input", "6,3", "-runs", "0"}, 2, "-runs must be ≥ 1"},
		{"negative runs", []string{"-target", "majority", "-input", "6,3", "-runs", "-2"}, 2, "-runs must be ≥ 1"},
		{"zero workers", []string{"-target", "majority", "-input", "6,3", "-workers", "0"}, 2, "-workers must be ≥ 1"},
		{"too many workers", []string{"-target", "majority", "-input", "6,3", "-workers", "2000"}, 2, "Workers must be ≤ 1024"},
		{"negative batch", []string{"-target", "majority", "-input", "6,3", "-batch", "-1"}, 2, "BatchSize must be ≥ 0"},
		{"negative budget", []string{"-target", "majority", "-input", "6,3", "-budget", "-5"}, 2, "MaxSteps must be ≥ 0"},
		{"negative window", []string{"-target", "majority", "-input", "6,3", "-window", "-1"}, 2, "StableWindow must be ≥ 0"},
		{"negative qperiod", []string{"-target", "majority", "-input", "6,3", "-qperiod", "-1"}, 2, "QuiescencePeriod must be ≥ 0"},
		{"bogus kernel", []string{"-target", "majority", "-input", "6,3", "-kernel", "turbo"}, 2, "unknown kernel \"turbo\""},
		{"fluid kernel removed", []string{"-target", "unary:8", "-input", "7", "-kernel", "fluid"}, 2, `unknown kernel "fluid" (want exact | batch | auto)`},
		{"langevin kernel removed", []string{"-target", "majority", "-input", "6,3", "-kernel", "langevin"}, 2, `unknown kernel "langevin" (want exact | batch | auto)`},
		{"fluid floor flag removed", []string{"-target", "majority", "-input", "6,3", "-kernel", "auto", "-fluid-floor", "32768"}, 2, "flag provided but not defined: -fluid-floor"},
		{"kernel with fair scheduler", []string{"-target", "majority", "-input", "6,3", "-kernel", "batch", "-scheduler", "fair"}, 2, "-kernel only applies"},
		{"batch scheduler removed", []string{"-target", "majority", "-input", "6,3", "-scheduler", "batch"}, 2, `unknown -scheduler "batch"`},
		{"kernel on program target", []string{"-target", "figure1", "-input", "5", "-kernel", "auto", "-runs", "5", "-window", "3"}, 2, "-kernel applies only to protocol targets"},
		{"batch on program target", []string{"-target", "equality:1", "-input", "5", "-batch", "64"}, 2, "-batch applies only to protocol targets"},
		{"window on program target", []string{"-target", "czerner:1", "-input", "5", "-window", "3"}, 2, "-window applies only to protocol targets"},
		{"qperiod on program target", []string{"-target", "figure1", "-input", "5", "-qperiod", "10"}, 2, "-qperiod applies only to protocol targets"},
		{"runs on program target", []string{"-target", "figure1", "-input", "5", "-runs", "2"}, 2, "-runs applies only to protocol targets"},
		{"workers on program target", []string{"-target", "figure1", "-input", "5", "-workers", "2"}, 2, "-workers applies only to protocol targets"},
		{"topology on program file", []string{"-program", "../../examples/programs/testdata/figure1.pop", "-input", "5", "-topology", "ring", "-crash", "0.1"}, 2, "-topology applies only to protocol targets"},
		{"fair scheduler on program target", []string{"-target", "figure1", "-input", "5", "-scheduler", "fair"}, 2, "-scheduler fair applies only to protocol targets"},
		{"missing input", []string{"-target", "majority"}, 2, "-input is required"},
		{"non-numeric flag", []string{"-runs", "x"}, 2, "invalid value"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2, "flag provided but not defined"},
		{"negative metrics interval", []string{"-target", "majority", "-input", "6,3", "-metrics-interval", "-1s"}, 2, "-metrics-interval must be ≥ 0"},
		{"unknown target", []string{"-target", "nope", "-input", "3"}, 1, `unknown target "nope"`},
		{"stray majority parameter", []string{"-target", "majority:3", "-input", "6,3"}, 1, "majority takes no parameter"},
		{"stray figure1 parameter", []string{"-target", "figure1:9", "-input", "5"}, 1, "figure1 takes no parameter"},
		{"missing czerner parameter", []string{"-target", "czerner", "-input", "5"}, 1, `target "czerner" needs a parameter`},
		{"unary out of range", []string{"-target", "unary:0", "-input", "5"}, 1, "k must be in [1, 1024]"},
		{"unary too large", []string{"-target", "unary:100000", "-input", "5"}, 1, "k must be in [1, 1024]"},
		{"binary overflow", []string{"-target", "binary:63", "-input", "5"}, 1, "j must be in [0, 62]"},
		{"czerner too large", []string{"-target", "czerner:40", "-input", "5"}, 1, "n must be in [1, 22]"},
		{"wrong input arity", []string{"-target", "unary:3", "-input", "5,3"}, 1, "needs -input with 1 count(s), got 2"},
		{"bad input counts", []string{"-target", "majority", "-input", "6;3"}, 1, "input"},
		{"input total overflows", []string{"-target", "majority", "-input", "9223372036854775807,1"}, 1, "input counts total more than"},
		{"unknown topology", []string{"-target", "majority", "-input", "6,3", "-topology", "torus"}, 2, "unknown topology"},
		{"bad grid parameter", []string{"-target", "majority", "-input", "6,3", "-topology", "grid:axb"}, 2, "ROWSxCOLS"},
		{"bogus topo policy", []string{"-target", "majority", "-input", "6,3", "-topology", "ring", "-topo-policy", "chaos"}, 2, "unknown edge-selection policy \"chaos\""},
		{"policy without topology", []string{"-target", "majority", "-input", "6,3", "-topo-policy", "random"}, 2, "edge-selection policy requires a topology"},
		{"topology with kernel", []string{"-target", "majority", "-input", "6,3", "-topology", "ring", "-kernel", "batch"}, 2, "Topology excludes Kernel"},
		{"topology with batch", []string{"-target", "majority", "-input", "6,3", "-topology", "ring", "-batch", "64"}, 2, "Topology excludes Kernel"},
		{"topology with fair scheduler", []string{"-target", "majority", "-input", "6,3", "-topology", "ring", "-scheduler", "fair"}, 2, "-topology replaces -scheduler"},
		{"faults without topology", []string{"-target", "majority", "-input", "6,3", "-crash", "0.1"}, 2, "Faults require a Topology"},
		{"crash rate out of range", []string{"-target", "majority", "-input", "6,3", "-topology", "ring", "-crash", "1.5"}, 2, "outside [0, 1]"},
		{"grid mismatch", []string{"-target", "majority", "-input", "6,3", "-topology", "grid:5x5"}, 1, "grid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstderr: %s", code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
			if tc.wantCode == 2 && !strings.Contains(stderr.String(), "Usage of ppsim") {
				t.Fatalf("usage-error stderr missing usage text:\n%s", stderr.String())
			}
		})
	}
}

// TestRunTopologyFlag drives -topology end to end: the run reports the
// graph and policy, converges, and is byte-reproducible for a fixed seed —
// including with fault injection on.
func TestRunTopologyFlag(t *testing.T) {
	args := [][]string{
		{"-target", "majority", "-input", "12,5", "-topology", "clique", "-topo-policy", "adversary", "-seed", "3"},
		{"-target", "unary:1", "-input", "24", "-topology", "powerlaw", "-topo-policy", "roundrobin",
			"-crash", "0.02", "-revive", "0.3", "-runs", "3", "-seed", "5"},
		{"-target", "unary:1", "-input", "16", "-topology", "grid:4x4", "-join", "0.001", "-seed", "7"},
	}
	for _, a := range args {
		var first string
		for i := 0; i < 2; i++ {
			var stdout, stderr bytes.Buffer
			if code := run(a, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit code %d\nstderr: %s", a, code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "topology:") {
				t.Fatalf("%v: missing topology line:\n%s", a, stdout.String())
			}
			if i == 0 {
				first = stdout.String()
			} else if stdout.String() != first {
				t.Fatalf("%v: topology run not reproducible:\n--- 1 ---\n%s--- 2 ---\n%s",
					a, first, stdout.String())
			}
		}
	}
}

// TestRunMetricsSnapshot runs a seeded simulation with -metrics and checks
// the stderr snapshot is well-formed JSON carrying live scheduler and
// runner counters (the acceptance criterion for ppsim -metrics).
func TestRunMetricsSnapshot(t *testing.T) {
	defer obs.Disable() // run()'s telemetry stop disables too; belt and braces
	var stdout, stderr bytes.Buffer
	code := run([]string{"-target", "majority", "-input", "20,11", "-seed", "7",
		"-runs", "4", "-workers", "2", "-batch", "64", "-metrics"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	last := lines[len(lines)-1]
	var snap struct {
		Sched struct {
			Steps        int64 `json:"steps"`
			NullsSkipped int64 `json:"nulls_skipped"`
		} `json:"sched"`
		Sim struct {
			RunsFinished int64 `json:"runs_finished"`
		} `json:"sim"`
	}
	if err := json.Unmarshal([]byte(last), &snap); err != nil {
		t.Fatalf("-metrics snapshot is not valid JSON: %v\n%s", err, last)
	}
	if snap.Sched.Steps == 0 {
		t.Fatalf("snapshot recorded no scheduler steps: %s", last)
	}
	if snap.Sim.RunsFinished != 4 {
		t.Fatalf("RunsFinished = %d, want 4: %s", snap.Sim.RunsFinished, last)
	}
	if snap.Sched.NullsSkipped == 0 {
		t.Fatalf("batched run skipped no nulls: %s", last)
	}
	// Telemetry must not leak into or alter stdout.
	if strings.Contains(stdout.String(), "{") {
		t.Fatalf("JSON leaked into stdout:\n%s", stdout.String())
	}
	// The same invocation with metrics off must produce identical stdout.
	var stdout2, stderr2 bytes.Buffer
	if code := run([]string{"-target", "majority", "-input", "20,11", "-seed", "7",
		"-runs", "4", "-workers", "2", "-batch", "64"}, &stdout2, &stderr2); code != 0 {
		t.Fatalf("metrics-off rerun failed: %s", stderr2.String())
	}
	if stdout.String() != stdout2.String() {
		t.Fatalf("stdout differs with metrics on/off:\n--- on ---\n%s--- off ---\n%s",
			stdout.String(), stdout2.String())
	}
}

// TestRunMetricsGroups checks that -metrics writes only the groups that
// observed something: a program run through the machine interpreter records
// nothing and prints {}, and a protocol simulation prints exactly the
// scheduler and runner groups.
func TestRunMetricsGroups(t *testing.T) {
	defer obs.Disable()
	for _, c := range []struct {
		args   []string
		groups []string
	}{
		{[]string{"-target", "czerner:1", "-input", "6"}, []string{}},
		{[]string{"-target", "majority", "-input", "60,40"}, []string{"sched", "sim"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(c.args, "-metrics"), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit code %d\nstderr: %s", c.args, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
		last := lines[len(lines)-1]
		var snap map[string]json.RawMessage
		if err := json.Unmarshal([]byte(last), &snap); err != nil {
			t.Fatalf("%v: -metrics snapshot is not valid JSON: %v\n%s", c.args, err, last)
		}
		groups := []string{}
		for g := range snap {
			groups = append(groups, g)
		}
		sort.Strings(groups)
		if !slices.Equal(groups, c.groups) {
			t.Fatalf("%v: groups %v, want %v: %s", c.args, groups, c.groups, last)
		}
		if len(c.groups) == 0 && last != "{}" {
			t.Fatalf("%v: snapshot %s, want {}", c.args, last)
		}
	}
}
