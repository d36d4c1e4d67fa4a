package simulate

import (
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// pointsView is the comparable form of a sweep result set: JSON with errors
// flattened to strings, so bit-identity assertions compare full statistics
// byte for byte.
func pointsView(t *testing.T, points []SweepPoint) string {
	t.Helper()
	type view struct {
		Inputs []int64           `json:"inputs"`
		Stats  *ConvergenceStats `json:"stats"`
		Err    string            `json:"err"`
	}
	vs := make([]view, len(points))
	for i, pt := range points {
		vs[i] = view{Inputs: pt.Inputs, Stats: pt.Stats}
		if pt.Err != nil {
			vs[i].Err = pt.Err.Error()
		}
	}
	data, err := json.Marshal(vs)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestSweepResumableMatchesSweep(t *testing.T) {
	p := buildEpidemic(t)
	inputs := [][]int64{{1, 7}, {1, 15}, {1, 31}, {1, 63}}
	expected := func([]int64) bool { return true }
	opts := Options{QuiescencePeriod: 32}

	plain := sweepReference(p, inputs, expected, 3, 11, opts)
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	resumable, err := SweepResumable(context.Background(), p, inputs, expected, 3, 11,
		Options{QuiescencePeriod: 32, Workers: 2}, &SweepCheckpointConfig{Path: ckpt, Key: "match-test"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pointsView(t, resumable), pointsView(t, plain); got != want {
		t.Fatalf("SweepResumable diverged from per-point measurement:\n%s\nvs\n%s", got, want)
	}
	// The final checkpoint must hold every point.
	cp, err := LoadSweepCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || len(cp.Points) != len(inputs) {
		t.Fatalf("final checkpoint incomplete: %+v", cp)
	}
	// Atomic writes leave no temp files behind.
	entries, err := os.ReadDir(filepath.Dir(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("stray temp file %s", e.Name())
		}
	}
}

// TestSweepResumeBitIdentical interrupts a sweep via context cancellation
// after two completed points, then resumes from the checkpoint and asserts
// the combined result set is bit-identical to an uninterrupted sweep — the
// in-process half of the crash/resume guarantee (the SIGKILL half is
// TestSweepCrashResumeSIGKILL).
func TestSweepResumeBitIdentical(t *testing.T) {
	p := buildEpidemic(t)
	var inputs [][]int64
	for i := 0; i < 10; i++ {
		inputs = append(inputs, []int64{1, int64(7 + 10*i)})
	}
	expected := func([]int64) bool { return true }
	opts := Options{QuiescencePeriod: 32}
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	met := obs.Enable()
	defer obs.Disable()

	ctx, cancel := context.WithCancel(context.Background())
	cfg := &SweepCheckpointConfig{
		Path: ckpt, Key: "resume-test",
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	}
	if _, err := SweepResumable(ctx, p, inputs, expected, 3, 11, opts, cfg); err == nil {
		t.Fatal("cancelled sweep reported no error")
	}
	cp, err := LoadSweepCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || len(cp.Points) == 0 || len(cp.Points) >= len(inputs) {
		t.Fatalf("interrupted checkpoint has %d points, want partial", len(cp.Points))
	}
	interrupted := len(cp.Points)

	resumed, err := SweepResumable(context.Background(), p, inputs, expected, 3, 11,
		Options{QuiescencePeriod: 32, Workers: 2}, &SweepCheckpointConfig{Path: ckpt, Key: "resume-test"})
	if err != nil {
		t.Fatal(err)
	}
	if got := met.Sim().SweepPointsResumed.Load(); got != int64(interrupted) {
		t.Fatalf("SweepPointsResumed = %d, want %d", got, interrupted)
	}
	if met.Sim().CheckpointsWritten.Load() == 0 {
		t.Fatal("no checkpoints recorded as written")
	}

	plain := sweepReference(p, inputs, expected, 3, 11, opts)
	if got, want := pointsView(t, resumed), pointsView(t, plain); got != want {
		t.Fatalf("resumed sweep diverged from uninterrupted sweep:\n%s\nvs\n%s", got, want)
	}
}

func TestSweepCheckpointMismatchRejected(t *testing.T) {
	p := buildEpidemic(t)
	inputs := [][]int64{{1, 7}, {1, 15}}
	expected := func([]int64) bool { return true }
	opts := Options{QuiescencePeriod: 32}
	ckpt := filepath.Join(t.TempDir(), "sweep.json")

	if _, err := SweepResumable(context.Background(), p, inputs, expected, 2, 5, opts,
		&SweepCheckpointConfig{Path: ckpt, Key: "sweep-a"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		key  string
		runs int
		seed int64
	}{
		{"different key", "sweep-b", 2, 5},
		{"different runs", "sweep-a", 3, 5},
		{"different seed", "sweep-a", 2, 6},
	} {
		if _, err := SweepResumable(context.Background(), p, inputs, expected, tc.runs, tc.seed, opts,
			&SweepCheckpointConfig{Path: ckpt, Key: tc.key}); err == nil {
			t.Fatalf("%s: checkpoint accepted", tc.name)
		}
	}
	// A version 1 checkpoint of the same spec holds empty-kernel points
	// drawn by the per-step RandomPair stream: refused, not merged.
	cp, err := LoadSweepCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	cp.Version = 1
	v1 := filepath.Join(filepath.Dir(ckpt), "v1.json")
	if err := cp.Save(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepResumable(context.Background(), p, inputs, expected, 2, 5, opts,
		&SweepCheckpointConfig{Path: v1, Key: "sweep-a"}); err == nil || !strings.Contains(err.Error(), "version 1, want 2") {
		t.Fatalf("version 1 checkpoint: err = %v, want a version mismatch", err)
	}
}

// crashSweepSpec is the sweep the SIGKILL test runs in both the helper
// process and the verifying parent. Escalating population sizes make the
// later points slow enough that the kill — sent as soon as the first
// checkpoint appears — lands mid-sweep.
func crashSweepInputs() [][]int64 {
	var inputs [][]int64
	for i := 0; i < 24; i++ {
		inputs = append(inputs, []int64{1, int64(10 + i*i*60)})
	}
	return inputs
}

const crashSweepEnv = "PPSIM_SWEEP_CRASH_CHECKPOINT"

// TestSweepCrashHelper is not a test of its own: TestSweepCrashResumeSIGKILL
// re-executes the test binary with crashSweepEnv set to run exactly this
// function as the victim process.
func TestSweepCrashHelper(t *testing.T) {
	path := os.Getenv(crashSweepEnv)
	if path == "" {
		t.Skip("helper for TestSweepCrashResumeSIGKILL")
	}
	p := buildEpidemic(t)
	_, err := SweepResumable(context.Background(), p, crashSweepInputs(),
		func([]int64) bool { return true }, 3, 11, Options{QuiescencePeriod: 32},
		&SweepCheckpointConfig{Path: path, Key: "crash-test"})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSweepCrashResumeSIGKILL is the acceptance-criterion test: a sweep
// killed with SIGKILL mid-flight, after at least one checkpoint, must on
// resume produce a result set bit-identical to an uninterrupted run.
func TestSweepCrashResumeSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess sweep")
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.json")

	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepCrashHelper$")
	cmd.Env = append(os.Environ(), crashSweepEnv+"="+ckpt)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first checkpoint is durable.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("no checkpoint appeared within 60s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	cmd.Wait()

	cp, err := LoadSweepCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	inputs := crashSweepInputs()
	if cp == nil || len(cp.Points) == 0 {
		t.Fatal("checkpoint empty after kill")
	}
	if len(cp.Points) >= len(inputs) {
		t.Logf("note: sweep finished before the kill (%d points); resume degenerates to restore-only", len(cp.Points))
	} else {
		t.Logf("killed after %d/%d points", len(cp.Points), len(inputs))
	}

	p := buildEpidemic(t)
	expected := func([]int64) bool { return true }
	opts := Options{QuiescencePeriod: 32}
	resumed, err := SweepResumable(context.Background(), p, inputs, expected, 3, 11,
		Options{QuiescencePeriod: 32, Workers: 2}, &SweepCheckpointConfig{Path: ckpt, Key: "crash-test"})
	if err != nil {
		t.Fatal(err)
	}
	plain := sweepReference(p, inputs, expected, 3, 11, opts)
	if got, want := pointsView(t, resumed), pointsView(t, plain); got != want {
		t.Fatalf("post-SIGKILL resume diverged from uninterrupted sweep:\n%s\nvs\n%s", got, want)
	}
}
