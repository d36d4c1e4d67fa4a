package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

type runCase struct {
	name       string
	args       []string
	wantCode   int
	wantStderr string
	wantStdout string
}

// TestRun drives every verification suite at a small population bound plus
// the error paths: exit code, a stderr substring and a stdout substring per
// row.
func TestRun(t *testing.T) {
	cases := []runCase{
		{"unknown suite", []string{"-targets", "nope"}, 1, `unknown target "nope"`, ""},
		{"negative mem budget", []string{"-mem-budget", "-1"}, 2, "-mem-budget must be ≥ 0", ""},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2, "flag provided but not defined", ""},
	}
	for _, suite := range strings.Split(allSuites, ",") {
		cases = append(cases, runCase{suite, []string{"-max-agents", "3", "-targets", suite}, 0, "",
			fmt.Sprintf("%-10s verified exactly", suite)})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.wantCode, stdout.String(), stderr.String())
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
