package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestRun drives one small export per -what plus the error paths: exit code,
// a stderr substring, and for successful exports a stdout substring.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
		wantStdout string
	}{
		{"protocol", []string{"-what", "protocol", "-target", "unary:3"}, 0, "", "digraph"},
		{"machine", []string{"-what", "machine", "-target", "czerner:1"}, 0, "", "digraph"},
		{"reach", []string{"-what", "reach", "-target", "majority", "-input", "2,1"}, 0, "", "digraph"},
		{"trace", []string{"-what", "trace", "-target", "majority", "-input", "6,3", "-period", "5"}, 0, "", ","},
		{"unknown target", []string{"-target", "nope"}, 1, `unknown target "nope"`, ""},
		{"out-of-range parameter", []string{"-target", "unary:2000000"}, 1, "k must be in [1, 1024]", ""},
		{"czerner without parameter", []string{"-what", "machine", "-target", "czerner"}, 1, `target "czerner" needs a parameter`, ""},
		{"program for protocol export", []string{"-what", "protocol", "-target", "figure1"}, 1, "is not a protocol", ""},
		{"protocol for machine export", []string{"-what", "machine", "-target", "majority"}, 1, "is not a population program", ""},
		{"unknown what", []string{"-what", "poster"}, 1, `unknown -what "poster"`, ""},
		{"missing input", []string{"-what", "reach", "-target", "majority"}, 1, "-input is required", ""},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2, "flag provided but not defined", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstderr: %s", code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantStderr, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Fatalf("stdout missing %q:\n%s", tc.wantStdout, stdout.String())
			}
		})
	}
}

// TestRunTraceGolden pins one trace CSV byte for byte. RunTraced drives its
// sampler per step, and the exact sampler's Step consumes RandomPair's
// random draws one-for-one, so this is also RandomPair's trace.
func TestRunTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace_majority.csv")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-what", "trace", "-target", "majority", "-input", "6,3", "-period", "5"},
		&stdout, &stderr); code != 0 {
		t.Fatalf("exit code = %d\nstderr: %s", code, stderr.String())
	}
	if got := stdout.String(); got != string(want) {
		t.Fatalf("trace CSV drifted from testdata/trace_majority.csv:\n%s", got)
	}
}
