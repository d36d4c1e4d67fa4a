package obsflag

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestStartNoopWhenNothingRequested(t *testing.T) {
	f := parse(t)
	stop, err := f.Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Current() != nil {
		t.Fatal("telemetry enabled with no flags set")
	}
	stop() // must be safe
}

func TestStartRejectsNegativeInterval(t *testing.T) {
	f := parse(t, "-metrics-interval", "-5s")
	if _, err := f.Start(io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-metrics-interval must be ≥ 0") {
		t.Fatalf("err = %v, want negative-interval rejection", err)
	}
	if obs.Current() != nil {
		t.Fatal("telemetry left enabled after a rejected Start")
	}
}

func TestStartRejectsBadPprofAddr(t *testing.T) {
	f := parse(t, "-pprof", "256.256.256.256:http")
	if _, err := f.Start(io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-pprof") {
		t.Fatalf("err = %v, want -pprof bind failure", err)
	}
	if obs.Current() != nil {
		t.Fatal("telemetry left enabled after a failed -pprof bind")
	}
}

// TestStartMetricsLifecycle pins the full lifecycle: Start enables the
// process-wide metric set, the stop function writes the final snapshot and
// disables it again.
func TestStartMetricsLifecycle(t *testing.T) {
	f := parse(t, "-metrics")
	var buf bytes.Buffer
	stop, err := f.Start(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.Current()
	if m == nil {
		t.Fatal("-metrics did not enable telemetry")
	}
	m.Sched().Steps.Add(42)
	stop()
	if obs.Current() != nil {
		t.Fatal("stop did not disable telemetry")
	}
	var snap struct {
		Sched struct {
			Steps int64 `json:"steps"`
		} `json:"sched"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("final snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if snap.Sched.Steps != 42 {
		t.Fatalf("Steps = %d, want 42", snap.Sched.Steps)
	}
}

// TestStartIntervalEmitsLines checks -metrics-interval alone (without
// -metrics) still enables collection and emits periodic snapshot lines but
// no extra final snapshot.
func TestStartIntervalEmitsLines(t *testing.T) {
	f := parse(t, "-metrics-interval", "1ms")
	var mu syncWriter
	stop, err := f.Start(&mu)
	if err != nil {
		t.Fatal(err)
	}
	if obs.Current() == nil {
		t.Fatal("-metrics-interval did not enable telemetry")
	}
	deadline := time.Now().Add(2 * time.Second)
	for mu.lines() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	got := mu.lines()
	if got < 2 {
		t.Fatalf("emitter produced %d lines, want ≥ 2", got)
	}
	for i, l := range strings.Split(strings.TrimSpace(mu.String()), "\n") {
		var snap map[string]json.RawMessage
		if err := json.Unmarshal([]byte(l), &snap); err != nil {
			t.Fatalf("line %d is not a valid snapshot: %v\n%s", i, err, l)
		}
	}
}

// syncWriter is a mutex-guarded buffer shared with the emitter goroutine.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

func (w *syncWriter) lines() int {
	return strings.Count(w.String(), "\n")
}
