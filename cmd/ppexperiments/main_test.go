package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunFlagValidation pins the CLI contract: invalid flag values exit
// non-zero with an error plus the usage text — no panic, no silent clamp.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of stderr
	}{
		{"zero workers", []string{"-workers", "0"}, "-workers must be ≥ 1"},
		{"negative workers", []string{"-workers", "-3"}, "-workers must be ≥ 1"},
		{"negative batch", []string{"-batch", "-1"}, "BatchSize must be ≥ 0"},
		{"negative explore workers", []string{"-explore-workers", "-1"}, "-explore-workers must be ≥ 0"},
		{"bogus kernel", []string{"-kernel", "turbo"}, `unknown kernel "turbo"`},
		{"removed kernel", []string{"-kernel", "langevin"}, `unknown kernel "langevin" (want exact | batch | auto)`},
		{"negative metrics interval", []string{"-metrics-interval", "-2s"}, "-metrics-interval must be ≥ 0"},
		{"negative topology m", []string{"-topology-m", "-4"}, "-topology-m must be ≥ 0"},
		{"non-numeric flag", []string{"-batch", "x"}, "invalid value"},
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
			if !strings.Contains(stderr.String(), "Usage of ppexperiments") {
				t.Fatalf("usage-error stderr missing usage text:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestRunQuickMetricsInterval drives the full binary in quick mode with a
// periodic emitter and checks every stderr line is a well-formed JSON
// snapshot with live counters (the acceptance criterion for
// ppexperiments -metrics-interval).
func TestRunQuickMetricsInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick experiment sweep")
	}
	defer obs.Disable()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-metrics", "-metrics-interval", "1ms"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected periodic + final snapshots, got %d lines", len(lines))
	}
	type snapshot struct {
		Sched struct {
			Steps int64 `json:"steps"`
		} `json:"sched"`
		Sim struct {
			RunsFinished int64 `json:"runs_finished"`
		} `json:"sim"`
		Explore struct {
			States int64 `json:"states"`
		} `json:"explore"`
	}
	var last snapshot
	for i, l := range lines {
		var snap snapshot
		if err := json.Unmarshal([]byte(l), &snap); err != nil {
			t.Fatalf("stderr line %d is not a valid JSON snapshot: %v\n%s", i, err, l)
		}
		last = snap
	}
	if last.Sched.Steps == 0 || last.Sim.RunsFinished == 0 || last.Explore.States == 0 {
		t.Fatalf("final snapshot missing live counters: %+v", last)
	}
	if !strings.Contains(stdout.String(), "E1 (Table 1)") {
		t.Fatalf("stdout missing experiment tables:\n%s", stdout.String())
	}
}
