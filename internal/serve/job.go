// Package serve implements ppserved: simulation-as-a-service over HTTP/JSON.
//
// Clients submit jobs (simulate, sweep, explore) against either a named
// built-in target or inline population-program source. Jobs run on a bounded
// worker pool; program submissions go through a content-addressed LRU cache
// of §7 compile→convert results, so repeat submissions of the same program —
// under any formatting — skip the expensive machine→protocol conversion.
// Sweep jobs checkpoint atomically and resume bit-identically after a crash
// or restart.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"regexp"
	"time"

	"repro/internal/popprog"
	"repro/internal/simulate"
	"repro/internal/target"
)

// Job kinds.
const (
	KindSimulate = "simulate" // MeasureConvergence at one input point
	KindSweep    = "sweep"    // resumable convergence sweep over many points
	KindExplore  = "explore"  // exhaustive reachability analysis
)

// Job statuses. queued and running are live; the rest are terminal.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// JobSpec is the client-submitted description of a job. Exactly one of
// Target (a named built-in) and Program (inline population-program source)
// selects the system under test.
type JobSpec struct {
	// Kind is simulate, sweep, or explore.
	Kind string `json:"kind"`
	// Target names a built-in: majority | unary:k | binary:j | remainder:m
	// | figure1 | czerner:n | equality:n, with the parameter bounds of
	// internal/target. The last three are population programs and go
	// through the §7 conversion (and its cache).
	Target string `json:"target,omitempty"`
	// Program is inline population-program source; converted via §7 with
	// cache, keyed by the source's canonical hash.
	Program string `json:"program,omitempty"`
	// Optimize runs program conversions through the shrink pipeline
	// (convert.Optimize) instead of the plain §7 conversion: same decided
	// predicate, fewer states and transitions. Optimized conversions are
	// cached under their own ":opt"-suffixed key, and the result document's
	// convert section reports the pipeline tag and full OptReport. Only
	// valid for program targets.
	Optimize bool `json:"optimize,omitempty"`
	// Input is the input-count vector (simulate, explore).
	Input []int64 `json:"input,omitempty"`
	// Inputs is the list of input-count vectors of a sweep.
	Inputs [][]int64 `json:"inputs,omitempty"`
	// Expected forces the expected output of every run. When omitted,
	// protocol targets use their built-in predicate and program targets
	// default to true.
	Expected *bool `json:"expected,omitempty"`
	// Runs is the number of repeated runs per point (default 1, at most
	// 1,000,000).
	Runs int `json:"runs,omitempty"`
	// Seed is the base PRNG seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Workers fans runs (simulate), points (sweep, each measuring its runs
	// on one goroutine) or frontier chunks (explore) out over goroutines,
	// at most 1024; an explore job expands on at most GOMAXPROCS of them.
	// Results and errors are bit-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Kernel selects the interaction kernel: exact | batch | auto (empty =
	// exact).
	Kernel string `json:"kernel,omitempty"`
	// Batch is the chunk size of the kernel driver (0 = 65536).
	Batch int64 `json:"batch,omitempty"`
	// MaxSteps bounds each run (0 = default budget).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// StableWindow and QuiescencePeriod tune convergence detection.
	StableWindow     int64 `json:"stable_window,omitempty"`
	QuiescencePeriod int64 `json:"quiescence_period,omitempty"`
	// Topology restricts interactions to a graph (clique | ring |
	// grid[:RxC] | powerlaw[:k]), per-step as in ppsim; excludes Kernel
	// and Batch.
	Topology string `json:"topology,omitempty"`
	// TopoPolicy selects the edge-selection policy of a Topology run:
	// random | roundrobin | starvation | adversary.
	TopoPolicy string `json:"topo_policy,omitempty"`
	// Crash, Revive, and Join are per-step fault rates for Topology runs.
	Crash  float64 `json:"crash,omitempty"`
	Revive float64 `json:"revive,omitempty"`
	Join   float64 `json:"join,omitempty"`
	// MaxStates bounds explore jobs (0 = engine default).
	MaxStates int `json:"max_states,omitempty"`
	// MemBudget caps the resident bytes of an explore job's spillable
	// storage (the key log); overflow goes to per-run spill files
	// under the server's state directory (or the system temp dir), removed
	// when the job finishes. 0 = all in RAM. Results are bit-identical for
	// any value.
	MemBudget int64 `json:"mem_budget,omitempty"`
	// Checkpoint names the checkpoint file of a sweep job. When set (and
	// the server has a state directory) the sweep writes periodic atomic
	// checkpoints and resumes from them after a restart; resubmitting the
	// identical spec continues where the dead server stopped.
	Checkpoint string `json:"checkpoint,omitempty"`
}

var checkpointNameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// maxRuns bounds JobSpec.Runs: a measurement allocates a result slot per
// run before it starts the first one.
const maxRuns = 1_000_000

// Validate checks the spec without doing any expensive work: the kind and
// shape rules below, the run options (simulate.Options.Validate), the
// target name and its parameter bound (target.Parse, which constructs
// nothing) and, for Program, a full parse — so submissions fail fast with
// 400, and the parser is directly on the fuzzing surface.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindSimulate, KindSweep, KindExplore:
	case "":
		return errors.New("kind is required (simulate | sweep | explore)")
	default:
		return fmt.Errorf("unknown kind %q (want simulate | sweep | explore)", s.Kind)
	}
	if (s.Target == "") == (s.Program == "") {
		return errors.New("exactly one of target and program is required")
	}
	switch s.Kind {
	case KindSweep:
		if len(s.Inputs) == 0 {
			return errors.New("sweep needs inputs (a list of input vectors)")
		}
		if len(s.Input) != 0 {
			return errors.New("sweep takes inputs, not input")
		}
		for i, in := range s.Inputs {
			if err := validCounts(in); err != nil {
				return fmt.Errorf("inputs[%d]: %w", i, err)
			}
		}
	default:
		if len(s.Input) == 0 {
			return fmt.Errorf("%s needs input (an input vector)", s.Kind)
		}
		if len(s.Inputs) != 0 {
			return fmt.Errorf("%s takes input, not inputs", s.Kind)
		}
		if err := validCounts(s.Input); err != nil {
			return fmt.Errorf("input: %w", err)
		}
	}
	if s.Runs < 0 || s.Runs > maxRuns {
		return fmt.Errorf("runs must be in [0, %d], got %d", maxRuns, s.Runs)
	}
	if s.MaxStates < 0 {
		return fmt.Errorf("max_states must be ≥ 0, got %d", s.MaxStates)
	}
	if s.MemBudget < 0 {
		return fmt.Errorf("mem_budget must be ≥ 0, got %d", s.MemBudget)
	}
	if _, err := s.options(); err != nil {
		return err
	}
	if s.Checkpoint != "" {
		if s.Kind != KindSweep {
			return errors.New("checkpoint only applies to sweep jobs")
		}
		if !checkpointNameRe.MatchString(s.Checkpoint) {
			return fmt.Errorf("checkpoint name %q: must match %s", s.Checkpoint, checkpointNameRe)
		}
	}
	if s.Program != "" {
		if _, err := popprog.Parse(s.Program); err != nil {
			return fmt.Errorf("program: %w", err)
		}
		return nil
	}
	t, err := target.Parse(s.Target)
	if err != nil {
		return err
	}
	if s.Optimize && t.Kind() != target.Programs {
		return fmt.Errorf("optimize applies only to program targets (inline programs, %s), not %q",
			target.Usage(target.Programs), s.Target)
	}
	return nil
}

func validCounts(in []int64) error {
	if len(in) == 0 {
		return errors.New("empty input vector")
	}
	total := int64(0)
	for _, c := range in {
		if c < 0 {
			return fmt.Errorf("negative count %d", c)
		}
		if c > math.MaxInt64-total {
			return fmt.Errorf("counts total more than %d agents", int64(math.MaxInt64))
		}
		total += c
	}
	if total == 0 {
		return errors.New("all counts are zero")
	}
	return nil
}

func (s *JobSpec) runs() int {
	if s.Runs <= 0 {
		return 1
	}
	return s.Runs
}

func (s *JobSpec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// options maps the spec's run fields onto simulate.Options and validates
// them there.
func (s *JobSpec) options() (simulate.Options, error) {
	opts := simulate.Options{
		MaxSteps:         s.MaxSteps,
		StableWindow:     s.StableWindow,
		QuiescencePeriod: s.QuiescencePeriod,
		BatchSize:        s.Batch,
		Kernel:           s.Kernel,
		Workers:          s.Workers,
	}
	if err := opts.SetTopology(s.Topology, s.TopoPolicy, s.Crash, s.Revive, s.Join); err != nil {
		return opts, err
	}
	return opts, opts.Validate()
}

// build constructs the system under test: a protocol directly, or a
// population program that still needs the §7 conversion (through the
// server's cache) to become one. Program compilation and conversion happen
// later, on the worker.
func (s *JobSpec) build() (*target.Built, error) {
	if s.Program != "" {
		prog, err := popprog.Parse(s.Program)
		if err != nil {
			return nil, fmt.Errorf("program: %w", err)
		}
		return &target.Built{Program: prog}, nil
	}
	t, err := target.Parse(s.Target)
	if err != nil {
		return nil, err
	}
	return t.Build()
}

// expectedFn is the per-point expected-output function of the job: the
// spec's explicit override, a protocol target's predicate, or true.
func (s *JobSpec) expectedFn(b *target.Built) func([]int64) bool {
	if s.Expected != nil {
		want := *s.Expected
		return func([]int64) bool { return want }
	}
	if b.Protocol != nil {
		return b.Predicate
	}
	return func([]int64) bool { return true }
}

// Job is one submitted job. The embedded spec is immutable after submit;
// the mutable fields are guarded by the server's mutex.
type Job struct {
	ID       string          `json:"id"`
	Spec     JobSpec         `json:"spec"`
	Status   string          `json:"status"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	CacheKey string          `json:"cache_key,omitempty"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	// Completed/Total track sweep progress (points) for status/stream.
	Completed int `json:"completed,omitempty"`
	Total     int `json:"total,omitempty"`

	cancel func() // cancels the running job's context; nil until started
	// seq counts the snapshots persistJob has taken of the job, and file
	// orders their writes (see persistJob).
	seq  uint64
	file *jobFile
	// changed, made by the first Server.watch after each change, is closed
	// by notify.
	changed chan struct{}
}

// notify wakes the job's streams after a change of status or progress.
// Caller holds the server's mutex.
func (j *Job) notify() {
	if j.changed != nil {
		close(j.changed)
		j.changed = nil
	}
}

// terminal reports whether the job reached a final status.
func (j *Job) terminal() bool {
	switch j.Status {
	case StatusDone, StatusFailed, StatusCancelled:
		return true
	}
	return false
}
