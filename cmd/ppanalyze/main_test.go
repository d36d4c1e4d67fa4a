package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun analyses each program family at a small size plus the error
// paths: exit code, a stderr substring, and for analyses a stdout substring.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
		wantStdout string
	}{
		{"figure1", []string{"-target", "figure1"}, 0, "", "call graph:"},
		{"czerner", []string{"-target", "czerner:2"}, 0, "", "max call depth:"},
		{"equality", []string{"-target", "equality:1"}, 0, "", "register usage:"},
		{"program file", []string{"-program", "../../examples/programs/testdata/figure1.pop"}, 0, "", "inlined size:"},
		{"unknown target", []string{"-target", "nope"}, 1, `unknown target "nope"`, ""},
		{"out-of-range parameter", []string{"-target", "czerner:40"}, 1, "n must be in [1, 22]", ""},
		{"czerner without parameter", []string{"-target", "czerner"}, 1, `target "czerner" needs a parameter`, ""},
		{"protocol target", []string{"-target", "majority"}, 1, "is not a population program", ""},
		{"missing program file", []string{"-program", "does-not-exist.pop"}, 1, "does-not-exist.pop", ""},
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
