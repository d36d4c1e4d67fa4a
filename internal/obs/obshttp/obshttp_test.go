package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/obs"
)

// TestServeExposesSnapshot binds the debug server on an ephemeral port and
// checks the expvar endpoint carries the live obs snapshot under the "obs"
// key, reflecting counters recorded after the server started.
func TestServeExposesSnapshot(t *testing.T) {
	m := obs.Enable()
	defer obs.Disable()
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m.Sched().Steps.Add(7)

	resp, err := http.Get("http://" + addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Obs struct {
			Sched struct {
				Steps int64 `json:"steps"`
			} `json:"sched"`
		} `json:"obs"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if vars.Obs.Sched.Steps != 7 {
		t.Fatalf("expvar obs.sched.steps = %d, want 7", vars.Obs.Sched.Steps)
	}

	// The pprof index must be mounted on the same mux.
	resp2, err := http.Get("http://" + addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline returned %d", resp2.StatusCode)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:http"); err == nil {
		t.Fatal("Serve accepted an unbindable address")
	}
}
