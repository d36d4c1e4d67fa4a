package serve

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simulate"
)

// TestServerRecoverQueued pins restart recovery of never-started jobs: a
// job submitted to a server with no workers survives that server's death
// and runs to completion on the next server over the same state directory.
func TestServerRecoverQueued(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: -1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	j, err := a.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
		Input: []int64{30, 20}, Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a.Close()

	met := obs.Enable()
	defer obs.Disable()
	b, ts := newTestServer(t, Config{Workers: 1, StateDir: dir})
	if got := b.Get(j.ID); got == nil {
		t.Fatalf("job %s not recovered", j.ID)
	}
	done := waitTerminal(t, ts.URL, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("recovered job finished %s (%s)", done.Status, done.Error)
	}
	if n := met.Serve().JobsResumed.Load(); n != 1 {
		t.Fatalf("JobsResumed = %d, want 1", n)
	}
}

// TestServerCloseLeavesQueuedJobs pins shutdown with a backlog: Close
// cancels the running sweep but starts none of the jobs queued behind it, so
// they still read queued after Close and run to done on a server restarted
// over the same state directory.
func TestServerCloseLeavesQueuedJobs(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]int64
	for i := 0; i < 8; i++ {
		inputs = append(inputs, []int64{int64(60_000 + 1_000*i), 40_000})
	}
	sweep, err := a.Submit(JobSpec{Kind: KindSweep, Target: "majority", Inputs: inputs, Runs: 4})
	if err != nil {
		t.Fatal(err)
	}
	var queued []string
	for i := 0; i < 5; i++ {
		j, err := a.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
			Input: []int64{30_000, 20_000}, Runs: 4, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for a.Get(sweep.ID).Status == StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("sweep never started")
		}
		time.Sleep(time.Millisecond)
	}
	a.Close()
	for _, id := range queued {
		if got := a.Get(id); got.Status != StatusQueued {
			t.Fatalf("job %s is %s after Close, want queued", id, got.Status)
		}
	}

	_, ts := newTestServer(t, Config{Workers: 1, StateDir: dir})
	for _, id := range queued {
		if got := waitTerminal(t, ts.URL, id); got.Status != StatusDone {
			t.Fatalf("job %s finished %s (%s) after the restart, want done", id, got.Status, got.Error)
		}
	}
}

// TestServerRecoverRemovedKernel pins restart recovery of a job file written
// before the fluid and langevin kernels and the fluid_floor field were
// removed: recover loads it (its lenient decode drops the stale field),
// re-enqueues it, and the job fails with the usage error that lists the
// remaining kernels instead of taking the server down.
func TestServerRecoverRemovedKernel(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := `{"id":"j000001","spec":{"kind":"simulate","target":"majority","input":[30,20],` +
		`"kernel":"langevin","fluid_floor":32768},"status":"queued","created":"2026-01-02T03:04:05Z"}`
	if err := os.WriteFile(filepath.Join(jobsDir, "j000001.json"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	met := obs.Enable()
	defer obs.Disable()
	s, ts := newTestServer(t, Config{Workers: 1, StateDir: dir})
	if got := s.Get("j000001"); got == nil {
		t.Fatal("stale job not recovered")
	}
	if n := met.Serve().JobsResumed.Load(); n != 1 {
		t.Fatalf("JobsResumed = %d, want 1", n)
	}
	done := waitTerminal(t, ts.URL, "j000001")
	const want = `simulate: unknown kernel "langevin" (want exact | batch | auto)`
	if done.Status != StatusFailed || done.Error != want {
		t.Fatalf("stale job finished %s (%q), want %s (%q)", done.Status, done.Error, StatusFailed, want)
	}
}

// TestServerRecoverTerminalHistory pins that finished jobs come back as
// queryable history, results intact, without being re-enqueued.
func TestServerRecoverTerminalHistory(t *testing.T) {
	dir := t.TempDir()
	a, tsA := newTestServer(t, Config{Workers: 1, StateDir: dir})
	j, err := a.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
		Input: []int64{20, 10}, Runs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, tsA.URL, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s", done.Status)
	}
	a.Close()

	met := obs.Enable()
	defer obs.Disable()
	b, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := b.Get(j.ID)
	if got == nil || got.Status != StatusDone {
		t.Fatalf("recovered history job: %+v", got)
	}
	if string(got.Result) != string(done.Result) {
		t.Fatalf("result changed across restart:\n%s\nvs\n%s", got.Result, done.Result)
	}
	if n := met.Serve().JobsResumed.Load(); n != 0 {
		t.Fatalf("JobsResumed = %d for terminal history, want 0", n)
	}
	// A fresh submission must not collide with the recovered job's ID.
	j2, err := b.Submit(JobSpec{Kind: KindSimulate, Target: "majority", Input: []int64{6, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == j.ID {
		t.Fatalf("ID %s reused after restart", j2.ID)
	}
}

// TestServerResumeSweepFromCheckpoint is the server-level half of the
// crash/resume guarantee (the process-level SIGKILL half lives in
// internal/simulate): a state directory holding a half-finished sweep job —
// exactly what a killed server leaves behind: a job file still in status
// running plus a partial checkpoint — is recovered on startup, the sweep
// resumes from the checkpoint rather than recomputing, and the final result
// is bit-identical to an uninterrupted run of the same spec.
func TestServerResumeSweepFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{
		Kind:       KindSweep,
		Target:     "unary:3",
		Inputs:     [][]int64{{5}, {9}, {13}, {17}, {21}, {25}},
		Runs:       2,
		Seed:       9,
		Checkpoint: "resume-e2e",
	}

	// Fabricate the dead server's leavings: run the first 3 points through
	// the same engine the worker uses, cancelling at the checkpoint the
	// worker would have written.
	b, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := spec.options()
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "checkpoints", spec.Checkpoint+".json")
	if err := os.MkdirAll(filepath.Dir(ckptPath), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	_, err = simulate.SweepResumable(ctx, b.Protocol, spec.Inputs, spec.expectedFn(b),
		spec.runs(), spec.seed(), opts, &simulate.SweepCheckpointConfig{
			Path: ckptPath,
			Key:  specHash(spec),
			Progress: func(done, total int) {
				if done == 3 {
					cancel()
				}
			},
		})
	if err == nil {
		t.Fatal("fabricated interruption did not interrupt")
	}
	// The cancel lands at a point boundary, so an in-flight point may still
	// complete; read back how many the checkpoint actually holds.
	partial, err := simulate.LoadSweepCheckpoint(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if partial == nil || len(partial.Points) < 3 || len(partial.Points) >= len(spec.Inputs) {
		t.Fatalf("fabricated checkpoint has %d points, want a partial prefix ≥ 3", len(partial.Points))
	}
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	started := time.Now().UTC()
	crashed := &Job{
		ID:      "j000001",
		Spec:    spec,
		Status:  StatusRunning,
		Created: started,
		Started: &started,
	}
	data, err := json.MarshalIndent(crashed, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobsDir, "j000001.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	met := obs.Enable()
	defer obs.Disable()
	s, ts := newTestServer(t, Config{Workers: 1, StateDir: dir})
	if got := s.Get("j000001"); got == nil {
		t.Fatal("crashed job not recovered")
	}
	done := waitTerminal(t, ts.URL, "j000001")
	if done.Status != StatusDone {
		t.Fatalf("resumed job finished %s (%s)", done.Status, done.Error)
	}
	if n := met.Serve().JobsResumed.Load(); n != 1 {
		t.Fatalf("JobsResumed = %d, want 1", n)
	}
	if n := met.Sim().SweepPointsResumed.Load(); n != int64(len(partial.Points)) {
		t.Fatalf("SweepPointsResumed = %d, want %d (the sweep recomputed checkpointed points)",
			n, len(partial.Points))
	}

	// Bit-identity: the resumed job's per-point stats equal each point
	// measured on its own with its sweep seed, byte for byte.
	var res sweepResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(spec.Inputs) {
		t.Fatalf("%d points, want %d", len(res.Points), len(spec.Inputs))
	}
	expected := spec.expectedFn(b)
	for i, pt := range res.Points {
		in := spec.Inputs[i]
		stats, err := simulate.MeasureConvergence(b.Protocol, in, expected(in), spec.runs(),
			simulate.SweepPointSeed(spec.seed(), i), opts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(stats)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(pt.Stats)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("point %d diverged after resume:\n%s\nvs\n%s", i, got, want)
		}
	}
}
