package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/convert"
)

func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "0"},
		{"-n", "-3"},
		{"-n", "23"},
		{"-opt-full", "-1"},
		{"-no-such-flag"},
		{"-n", "2", "stray"},
	}
	for _, args := range cases {
		code, _, stderr := runCapture(t, args...)
		if code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "Usage") && !strings.Contains(stderr, "flag") {
			t.Errorf("args %v: stderr lacks usage text: %q", args, stderr)
		}
	}
}

func TestTable1Output(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-n", "2")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"E1 (Table 1)", "unary", "binary"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	if strings.Contains(stdout, "E17") {
		t.Error("shrink table rendered without -opt")
	}
}

func TestOptTable(t *testing.T) {
	// -opt-full 0 keeps the test on the cheap counting-only path.
	code, stdout, stderr := runCapture(t, "-n", "1", "-opt", "-opt-full", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	for _, want := range []string{"E1 (Table 1)", "E17 (shrink)", "figure1-4<=x<7", "czerner-threshold-n1"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestOptReportJSON(t *testing.T) {
	code, stdout, stderr := runCapture(t, "-n", "1", "-opt-report", "-opt-full", "0")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var reports []*convert.OptReport
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatalf("stdout is not an OptReport array: %v\n%s", err, stdout)
	}
	if len(reports) != 2 { // figure1 + czerner:1
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	for _, r := range reports {
		if r.Pipeline != convert.PipelineTag {
			t.Errorf("%s: pipeline %q, want %q", r.Name, r.Pipeline, convert.PipelineTag)
		}
		if r.After.Instrs >= r.Before.Instrs {
			t.Errorf("%s: no instruction shrink (%d → %d)", r.Name, r.Before.Instrs, r.After.Instrs)
		}
		if r.After.Transitions != -1 || r.Before.Transitions != -1 {
			t.Errorf("%s: counting-only report materialised transitions", r.Name)
		}
	}
}

func TestOptReportFull(t *testing.T) {
	if testing.Short() {
		t.Skip("materialises figure1 and czerner:1 protocols")
	}
	code, stdout, stderr := runCapture(t, "-n", "1", "-opt-report", "-opt-full", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	var reports []*convert.OptReport
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Before.Transitions <= 0 || r.After.Transitions <= 0 {
			t.Fatalf("%s: full report lacks transition counts: %+v", r.Name, r)
		}
		if r.After.Transitions >= r.Before.Transitions {
			t.Errorf("%s: no transition shrink (%d → %d)",
				r.Name, r.Before.Transitions, r.After.Transitions)
		}
		if r.After.States >= r.Before.States {
			t.Errorf("%s: no state shrink (%d → %d)", r.Name, r.Before.States, r.After.States)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	code, _, stderr := runCapture(t, "-n", "1", "-opt-report", "-opt-full", "0", "-metrics")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	var snap struct {
		Opt struct {
			Runs          int64 `json:"runs"`
			InstrsRemoved int64 `json:"instrs_removed"`
		} `json:"opt"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &snap); err != nil {
		t.Fatalf("stderr snapshot: %v\n%s", err, stderr)
	}
	if snap.Opt.Runs != 2 {
		t.Errorf("opt.runs = %d, want 2", snap.Opt.Runs)
	}
	if snap.Opt.InstrsRemoved <= 0 {
		t.Errorf("opt.instrs_removed = %d, want > 0", snap.Opt.InstrsRemoved)
	}
}
