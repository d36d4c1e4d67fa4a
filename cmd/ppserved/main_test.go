package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-queue", "-1"},
		{"-workers", "-1"},
		{"-cache", "-1"},
		{"-nonsense"},
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf, nil); code != 2 {
			t.Fatalf("run(%v) = %d, want 2 (stderr %s)", args, code, errBuf.String())
		}
	}
}

func TestBadListenAddr(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:http"}, &out, &errBuf, nil); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr %s)", code, errBuf.String())
	}
}

// daemon is a ppserved run booted by startDaemon. out and errBuf may be
// read once exit has delivered run's exit code.
type daemon struct {
	base        string
	exit        chan int
	out, errBuf bytes.Buffer
}

// startDaemon boots run on an ephemeral port with a fresh state directory
// and one worker, and returns once it is accepting.
func startDaemon(t *testing.T) *daemon {
	t.Helper()
	if os.Getenv("CI_NO_SIGNALS") != "" {
		t.Skip("environment forbids self-signalling")
	}
	d := &daemon{exit: make(chan int, 1)}
	ready := make(chan string, 1)
	args := []string{"-addr", "localhost:0", "-state-dir", t.TempDir(), "-workers", "1"}
	go func() { d.exit <- run(args, &d.out, &d.errBuf, ready) }()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
	case code := <-d.exit:
		t.Fatalf("daemon exited %d before ready (stderr %s)", code, d.errBuf.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon not ready after 30s")
	}
	return d
}

// submit posts a job document and returns the job's id.
func (d *daemon) submit(t *testing.T, body string) string {
	t.Helper()
	resp, err := http.Post(d.base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var accepted struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("accept document %s (err %v)", data, err)
	}
	return accepted.ID
}

// terminate sends SIGTERM to the process, whose only handler is the
// daemon's, and requires a clean exit within limit.
func (d *daemon) terminate(t *testing.T, limit time.Duration) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("daemon exited %d (stderr %s)", code, d.errBuf.String())
		}
	case <-time.After(limit):
		t.Fatalf("daemon still running %v after SIGTERM", limit)
	}
	if !strings.Contains(d.out.String(), "shutting down") {
		t.Fatalf("missing shutdown log in %q", d.out.String())
	}
}

// TestEndToEnd boots the daemon on an ephemeral port, submits a job over
// real HTTP, reads its result, and shuts down via SIGTERM — the whole
// quickstart flow in one test.
func TestEndToEnd(t *testing.T) {
	d := startDaemon(t)
	base := d.base
	id := d.submit(t, `{"kind":"simulate","target":"majority","input":[30,20],"runs":3,"seed":7}`)

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/api/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var j struct {
			Status string          `json:"status"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("status document %s: %v", body, err)
		}
		if j.Status == "done" {
			if len(j.Result) == 0 {
				t.Fatalf("done without result: %s", body)
			}
			break
		}
		if j.Status == "failed" || j.Status == "cancelled" {
			t.Fatalf("job ended %s: %s", j.Status, j.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 60s", j.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// SIGTERM lands on the whole process; the daemon's NotifyContext
	// catches it and drives the graceful-shutdown path.
	d.terminate(t, 30*time.Second)
}

// TestSIGTERMEndsOpenStreams pins that shutdown does not wait for open job
// streams: with a stream following a running explore job, SIGTERM cancels
// the job, ends the stream after its cancelled line, and the daemon exits
// within 5 s. Uncancelled, the exploration runs for seconds.
func TestSIGTERMEndsOpenStreams(t *testing.T) {
	d := startDaemon(t)
	id := d.submit(t, `{"kind":"explore","target":"figure1","optimize":true,"input":[16],"workers":1}`)
	resp, err := http.Get(d.base + "/api/v1/jobs/" + id + "/stream?interval_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var line struct {
		Status string `json:"status"`
	}
	for line.Status != "running" {
		if !sc.Scan() {
			t.Fatalf("stream ended before the job ran (%v)", sc.Err())
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
	}
	d.terminate(t, 5*time.Second)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
	}
	if line.Status != "cancelled" {
		t.Fatalf("last stream line %q, want cancelled", line.Status)
	}
}
