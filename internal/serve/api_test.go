package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newTestServer starts a Server with the given config behind an httptest
// listener and tears both down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// waitTerminal polls a job until it leaves the live statuses.
func waitTerminal(t *testing.T, baseURL, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, data := getJSON(t, baseURL+"/api/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, resp.StatusCode, data)
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			t.Fatalf("job %s: %v in %s", id, err, data)
		}
		if j.terminal() {
			return &j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, j.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestAPIContract is the table-driven submission contract: well-formed jobs
// are accepted with 202, everything malformed is rejected with 400 and a
// JSON error document.
func TestAPIContract(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1, QueueDepth: 100})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"simulate ok", `{"kind":"simulate","target":"majority","input":[6,4]}`, 202},
		{"sweep ok", `{"kind":"sweep","target":"unary:3","inputs":[[5],[9]]}`, 202},
		{"explore ok", `{"kind":"explore","target":"majority","input":[2,1]}`, 202},
		{"program ok", `{"kind":"simulate","program":"program p\nregisters a\n\nproc Main {\n  of true\n}\n","input":[3]}`, 202},
		{"bad JSON", `{"kind":`, 400},
		{"empty body", ``, 400},
		{"JSON scalar", `42`, 400},
		{"trailing garbage", `{"kind":"simulate","target":"majority","input":[6,4]} trailing`, 400},
		{"unknown field", `{"kind":"simulate","target":"majority","input":[6,4],"bogus":1}`, 400},
		{"missing kind", `{"target":"majority","input":[6,4]}`, 400},
		{"unknown kind", `{"kind":"dance","target":"majority","input":[6,4]}`, 400},
		{"no target or program", `{"kind":"simulate","input":[6,4]}`, 400},
		{"both target and program", `{"kind":"simulate","target":"majority","program":"x","input":[6,4]}`, 400},
		{"unknown target", `{"kind":"simulate","target":"nonesuch","input":[6,4]}`, 400},
		{"target needs param", `{"kind":"simulate","target":"unary","input":[6]}`, 400},
		{"target rejects param", `{"kind":"simulate","target":"majority:3","input":[6,4]}`, 400},
		{"bad target param", `{"kind":"simulate","target":"unary:x","input":[6]}`, 400},
		{"figure1 rejects param", `{"kind":"simulate","target":"figure1:9","input":[6]}`, 400},
		{"czerner needs param", `{"kind":"simulate","target":"czerner","input":[6]}`, 400},
		{"unary param zero", `{"kind":"simulate","target":"unary:0","input":[6]}`, 400},
		{"unary param too large", `{"kind":"simulate","target":"unary:100000","input":[6]}`, 400},
		{"binary param overflows", `{"kind":"simulate","target":"binary:63","input":[6]}`, 400},
		{"remainder param zero", `{"kind":"simulate","target":"remainder:0","input":[6]}`, 400},
		{"czerner param zero", `{"kind":"simulate","target":"czerner:0","input":[6]}`, 400},
		{"czerner param too large", `{"kind":"simulate","target":"czerner:40","input":[6]}`, 400},
		{"equality param too large", `{"kind":"simulate","target":"equality:23","input":[6]}`, 400},
		{"largest params ok", `{"kind":"sweep","target":"binary:62","inputs":[[5]]}`, 202},
		{"optimize on protocol target", `{"kind":"simulate","target":"majority","optimize":true,"input":[6,4]}`, 400},
		{"unparsable program", `{"kind":"simulate","program":"not a program","input":[3]}`, 400},
		{"simulate without input", `{"kind":"simulate","target":"majority"}`, 400},
		{"simulate with inputs", `{"kind":"simulate","target":"majority","input":[6,4],"inputs":[[1]]}`, 400},
		{"sweep without inputs", `{"kind":"sweep","target":"majority"}`, 400},
		{"sweep with input", `{"kind":"sweep","target":"majority","input":[6,4],"inputs":[[6,4]]}`, 400},
		{"empty input vector", `{"kind":"simulate","target":"majority","input":[]}`, 400},
		{"negative count", `{"kind":"simulate","target":"majority","input":[-1,4]}`, 400},
		{"all-zero counts", `{"kind":"simulate","target":"majority","input":[0,0]}`, 400},
		{"input total overflows", `{"kind":"simulate","target":"majority","input":[9223372036854775807,1]}`, 400},
		{"sweep input total overflows", `{"kind":"sweep","target":"majority","inputs":[[6,4],[4611686018427387904,4611686018427387904]]}`, 400},
		{"largest input total ok", `{"kind":"simulate","target":"majority","input":[9223372036854775806,1]}`, 202},
		{"negative runs", `{"kind":"simulate","target":"majority","input":[6,4],"runs":-1}`, 400},
		{"negative workers", `{"kind":"simulate","target":"majority","input":[6,4],"workers":-2}`, 400},
		{"workers above bound", `{"kind":"explore","target":"majority","input":[6,4],"workers":1025}`, 400},
		{"runs above bound", `{"kind":"simulate","target":"majority","input":[6,4],"runs":1000001}`, 400},
		{"largest runs and workers ok", `{"kind":"simulate","target":"majority","input":[6,4],"runs":1000000,"workers":1024}`, 202},
		{"negative max_steps", `{"kind":"simulate","target":"majority","input":[6,4],"max_steps":-5}`, 400},
		{"unknown kernel", `{"kind":"simulate","target":"majority","input":[6,4],"kernel":"warp"}`, 400},
		{"fluid kernel removed", `{"kind":"simulate","target":"unary:8","input":[16384],"kernel":"fluid"}`, 400},
		{"langevin kernel removed", `{"kind":"sweep","target":"unary:8","inputs":[[20000],[7]],"kernel":"langevin"}`, 400},
		{"fluid_floor field removed", `{"kind":"simulate","target":"majority","input":[6,4],"kernel":"auto","fluid_floor":32768}`, 400},
		{"topology ok", `{"kind":"simulate","target":"majority","input":[6,4],"topology":"ring"}`, 202},
		{"topology with policy ok", `{"kind":"simulate","target":"majority","input":[6,4],"topology":"ring","topo_policy":"roundrobin"}`, 202},
		{"unknown topology", `{"kind":"simulate","target":"majority","input":[6,4],"topology":"dodecahedron"}`, 400},
		{"topology excludes kernel", `{"kind":"simulate","target":"majority","input":[6,4],"topology":"ring","kernel":"auto"}`, 400},
		{"policy without topology", `{"kind":"simulate","target":"majority","input":[6,4],"topo_policy":"random"}`, 400},
		{"unknown policy", `{"kind":"simulate","target":"majority","input":[6,4],"topology":"ring","topo_policy":"chaos"}`, 400},
		{"faults without topology", `{"kind":"simulate","target":"majority","input":[6,4],"crash":0.1}`, 400},
		{"fault rate out of range", `{"kind":"simulate","target":"majority","input":[6,4],"topology":"ring","crash":1.5}`, 400},
		{"checkpoint on simulate", `{"kind":"simulate","target":"majority","input":[6,4],"checkpoint":"x"}`, 400},
		{"checkpoint path traversal", `{"kind":"sweep","target":"majority","inputs":[[6,4]],"checkpoint":"../evil"}`, 400},
		{"checkpoint without state dir", `{"kind":"sweep","target":"majority","inputs":[[6,4]],"checkpoint":"ok-name"}`, 400},
	}
	// Errors whose wording ppsim shares, the index of an overflowing input
	// vector, and the answers to removed kernel names and fields are pinned
	// too.
	wantErr := map[string]string{
		"policy without topology":     "edge-selection policy requires a topology",
		"workers above bound":         "Workers must be ≤ 1024",
		"input total overflows":       "input: counts total more than 9223372036854775807 agents",
		"sweep input total overflows": "inputs[1]: counts total more than",
		"fluid kernel removed":        `unknown kernel "fluid" (want exact | batch | auto)`,
		"langevin kernel removed":     `unknown kernel "langevin" (want exact | batch | auto)`,
		"fluid_floor field removed":   `unknown field "fluid_floor"`,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postJSON(t, ts.URL+"/api/v1/jobs", tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, data)
			}
			if tc.want == 202 {
				var j Job
				if err := json.Unmarshal(data, &j); err != nil || j.ID == "" || j.Status != StatusQueued {
					t.Fatalf("bad accept document %s (err %v)", data, err)
				}
			} else {
				var e errorDoc
				if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
					t.Fatalf("bad error document %s (err %v)", data, err)
				}
				if !strings.Contains(e.Error, wantErr[tc.name]) {
					t.Fatalf("error %q, want %q", e.Error, wantErr[tc.name])
				}
			}
		})
	}

	// A stream's interval_ms is held to the same rule: a value that does
	// not parse or lies outside [10, 60000] answers 400 and names the
	// range. The job is cancelled, so an accepted stream ends after one line.
	resp, data := postJSON(t, ts.URL+"/api/v1/jobs", `{"kind":"simulate","target":"majority","input":[6,4]}`)
	var j Job
	if err := json.Unmarshal(data, &j); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s (err %v)", resp.StatusCode, data, err)
	}
	postJSON(t, ts.URL+"/api/v1/jobs/"+j.ID+"/cancel", "")
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"", 200},
		{"interval_ms=", 200},
		{"interval_ms=10", 200},
		{"interval_ms=60000", 200},
		{"interval_ms=9", 400},
		{"interval_ms=0", 400},
		{"interval_ms=-5", 400},
		{"interval_ms=60001", 400},
		{"interval_ms=99999999999999999999", 400},
		{"interval_ms=1.5", 400},
		{"interval_ms=200ms", 400},
		{"interval_ms=%20200", 400},
	} {
		t.Run("stream "+tc.query, func(t *testing.T) {
			resp, data := getJSON(t, ts.URL+"/api/v1/jobs/"+j.ID+"/stream?"+tc.query)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, tc.want, data)
			}
			if tc.want == 200 {
				var line streamLine
				if err := json.Unmarshal(data, &line); err != nil || line.Status != StatusCancelled {
					t.Fatalf("stream %q (err %v), want one cancelled line", data, err)
				}
				return
			}
			var e errorDoc
			if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "interval_ms must be an integer in [10, 60000]") {
				t.Fatalf("error document %s (err %v), want one naming the range", data, err)
			}
		})
	}
}

func TestAPIUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1})
	for _, u := range []string{"/api/v1/jobs/nope", "/api/v1/jobs/nope/result"} {
		resp, _ := getJSON(t, ts.URL+u)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d, want 404", u, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/api/v1/jobs/nope/cancel", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %d, want 404", resp.StatusCode)
	}
}

// TestAPIQueueFull pins the back-pressure contract: with no workers and a
// queue of depth 2, the third submission is rejected with 429.
func TestAPIQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1, QueueDepth: 2})
	body := `{"kind":"simulate","target":"majority","input":[6,4]}`
	for i := 0; i < 2; i++ {
		resp, data := postJSON(t, ts.URL+"/api/v1/jobs", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, data)
		}
	}
	resp, data := postJSON(t, ts.URL+"/api/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %s, want 429", resp.StatusCode, data)
	}
	// Rejected jobs must not appear in the store.
	resp, data = getJSON(t, ts.URL+"/api/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []map[string]any
	if err := json.Unmarshal(data, &list); err != nil || len(list) != 2 {
		t.Fatalf("list %s (err %v), want 2 jobs", data, err)
	}
}

func TestAPIOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1})
	big := fmt.Sprintf(`{"kind":"simulate","target":"majority","input":[6,4],"program":%q}`,
		strings.Repeat("x", maxBodyBytes+1))
	resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d, want 413", resp.StatusCode)
	}
}

// TestAPIJobLifecycle drives one simulate job from submission to result and
// checks the 409-until-done rule on the result endpoint.
func TestAPIJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1, QueueDepth: 4})
	resp, data := postJSON(t, ts.URL+"/api/v1/jobs",
		`{"kind":"simulate","target":"majority","input":[30,20],"runs":3,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	// No workers yet: the result endpoint must refuse with 409.
	resp, data = getJSON(t, ts.URL+"/api/v1/jobs/"+j.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result while queued: %d %s, want 409", resp.StatusCode, data)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	j2, err := s2.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
		Input: []int64{30, 20}, Runs: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, ts2.URL, j2.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
	resp, data = getJSON(t, ts2.URL+"/api/v1/jobs/"+j2.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, data)
	}
	var full Job
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	var res simulateResult
	if err := json.Unmarshal(full.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindSimulate || res.Stats == nil || res.Stats.Runs != 3 || len(res.Samples) != 3 {
		t.Fatalf("bad result document %s", full.Result)
	}
	if res.Protocol.Name == "" || res.Protocol.States == 0 {
		t.Fatalf("missing protocol info in %s", full.Result)
	}
}

// TestAPITopologyJob runs a simulate job on a restricted interaction graph
// end to end, exercising the topology/fault plumbing from JobSpec through
// simulate.Options.
func TestAPITopologyJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, data := postJSON(t, ts.URL+"/api/v1/jobs",
		`{"kind":"simulate","target":"majority","input":[12,8],"runs":2,"seed":11,"topology":"clique"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, ts.URL, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
	var res simulateResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Runs != 2 || res.Stats.WrongOutputs != 0 {
		t.Fatalf("bad topology result %s", done.Result)
	}
}

// TestAPIBinaryTargetExpected pins the expected output of the largest
// binary target: binary:62 decides x ≥ 2^62, so five agents must be counted
// as a correct false run, not a wrong output.
func TestAPIBinaryTargetExpected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{Kind: KindSimulate, Target: "binary:62", Input: []int64{5}, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, ts.URL, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
	var res simulateResult
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Runs != 2 || res.Stats.WrongOutputs != 0 {
		t.Fatalf("binary:62 at [5]: %s", done.Result)
	}
}

// TestAPICancelQueued cancels a job before any worker can take it.
func TestAPICancelQueued(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1})
	resp, data := postJSON(t, ts.URL+"/api/v1/jobs",
		`{"kind":"simulate","target":"majority","input":[6,4]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	resp, data = postJSON(t, ts.URL+"/api/v1/jobs/"+j.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, data)
	}
	got := waitTerminal(t, ts.URL, j.ID)
	if got.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", got.Status)
	}
}

// TestAPICancelRunning cancels a long sweep mid-flight: the job must land
// in cancelled with partial results rather than running to completion.
func TestAPICancelRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	var inputs [][]int64
	for i := 0; i < 400; i++ {
		inputs = append(inputs, []int64{int64(100 + i), 50})
	}
	specInputs, _ := json.Marshal(inputs)
	resp, data := postJSON(t, ts.URL+"/api/v1/jobs",
		fmt.Sprintf(`{"kind":"sweep","target":"majority","inputs":%s,"runs":2}`, specInputs))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var j Job
	if err := json.Unmarshal(data, &j); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, then cancel.
	deadline := time.Now().Add(30 * time.Second)
	for s.Get(j.ID).Status == StatusQueued {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, data = postJSON(t, ts.URL+"/api/v1/jobs/"+j.ID+"/cancel", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, data)
	}
	got := waitTerminal(t, ts.URL, j.ID)
	if got.Status != StatusCancelled {
		t.Fatalf("status %s, want cancelled", got.Status)
	}
}

func TestAPIHealthAndDebug(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: -1})
	resp, data := getJSON(t, ts.URL+"/api/v1/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h map[string]any
	if err := json.Unmarshal(data, &h); err != nil || h["ok"] != true {
		t.Fatalf("healthz document %s (err %v)", data, err)
	}
	// The obs expvar+pprof base is mounted under /debug/.
	resp, _ = getJSON(t, ts.URL+"/debug/vars")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars: %d", resp.StatusCode)
	}
}

// TestAPIStream reads the NDJSON stream of a job until its terminal line.
func TestAPIStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	j, err := s.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
		Input: []int64{20, 10}, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/stream?interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var last streamLine
	lines := 0
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("empty stream")
	}
	if last.ID != j.ID || last.Status != StatusDone {
		t.Fatalf("final stream line %+v, want done for %s", last, j.ID)
	}
}

// TestAPIStreamCarriesTelemetry checks that with telemetry on, a simulate
// job's terminal stream line carries the process-wide metric set: the
// scheduler's steps and the job's finished runs, and no explore group,
// which observed nothing.
func TestAPIStreamCarriesTelemetry(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	s, ts := newTestServer(t, Config{Workers: 1})
	const runs = 3
	j, err := s.Submit(JobSpec{Kind: KindSimulate, Target: "majority",
		Input: []int64{20, 10}, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + j.ID + "/stream?interval_ms=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var last []byte
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var line struct {
		Status string `json:"status"`
		Obs    struct {
			Sched *struct {
				Steps int64 `json:"steps"`
			} `json:"sched"`
			Sim *struct {
				RunsFinished int64 `json:"runs_finished"`
			} `json:"sim"`
			Explore json.RawMessage `json:"explore"`
		} `json:"obs"`
	}
	if err := json.Unmarshal(last, &line); err != nil {
		t.Fatalf("stream line %q: %v", last, err)
	}
	if line.Status != StatusDone || line.Obs.Sched == nil || line.Obs.Sched.Steps <= 0 ||
		line.Obs.Sim == nil || line.Obs.Sim.RunsFinished != runs || line.Obs.Explore != nil {
		t.Fatalf("terminal line %s: want done with obs.sched.steps > 0, obs.sim.runs_finished = %d and no obs.explore",
			last, runs)
	}
}

// streamed is one stream line and the time it arrived.
type streamed struct {
	line streamLine
	at   time.Time
}

// openStream follows job id's NDJSON stream with the given query and sends
// each line, stamped with its arrival, on the returned channel, which is
// closed when the stream ends. The request is cancelled when the test ends.
func openStream(t *testing.T, baseURL, id, query string) <-chan streamed {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/api/v1/jobs/"+id+"/stream?"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream %s: status %d", id, resp.StatusCode)
	}
	ch := make(chan streamed)
	go func() {
		defer close(ch)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var l streamLine
			if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
				t.Errorf("stream line %q: %v", sc.Text(), err)
				return
			}
			select {
			case ch <- streamed{l, time.Now()}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// nextLine returns the stream's next line. It fails the test if the stream
// ends first or no line arrives within 30 s, half the interval the push
// tests stream at.
func nextLine(t *testing.T, ch <-chan streamed) streamed {
	t.Helper()
	select {
	case l, ok := <-ch:
		if !ok {
			t.Fatal("stream ended")
		}
		return l
	case <-time.After(30 * time.Second):
		t.Fatal("no stream line within 30 s")
	}
	panic("unreachable")
}

// checkEnded fails the test unless the stream ends without another line.
func checkEnded(t *testing.T, ch <-chan streamed) {
	t.Helper()
	select {
	case l, ok := <-ch:
		if ok {
			t.Fatalf("stream went on after its last line: %+v", l.line)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream still open after 30 s")
	}
}

// checkPushed fails the test unless l, job j's terminal line, arrived within
// a second of the job's end.
func checkPushed(t *testing.T, l streamed, j *Job) {
	t.Helper()
	if !j.terminal() || l.line.Status != j.Status {
		t.Fatalf("line %+v, want the terminal status of %+v", l.line, j)
	}
	if lag := l.at.Sub(*j.Finished); lag > time.Second {
		t.Fatalf("terminal line of %s arrived %v after the job ended, want within 1 s", j.ID, lag)
	}
}

// TestAPIStreamPushesChanges follows a checkpointed sweep at
// interval_ms=60000, so every line after the first is pushed by a change:
// queued behind a blocker job, running, one line per completed point, and
// the terminal line within a second of the job's end. The running
// blocker's stream gets its cancelled line the same way.
func TestAPIStreamPushesChanges(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, StateDir: t.TempDir()})
	// The blocker runs for seconds unless cancelled; a cancel lands at
	// its next point, a few milliseconds away.
	var many [][]int64
	for i := 0; i < 1000; i++ {
		many = append(many, []int64{int64(10_000 + i), 6000})
	}
	blocker, err := s.Submit(JobSpec{Kind: KindSweep, Target: "majority", Inputs: many, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Each point takes tens of milliseconds, several scheduler time slices,
	// so the stream writes its line before the next point completes even
	// when both share one CPU.
	sweep, err := s.Submit(JobSpec{Kind: KindSweep, Target: "majority", Runs: 10, Workers: 1,
		Inputs: [][]int64{{15000, 10000}, {15500, 10000}, {16000, 10000}}, Checkpoint: "push"})
	if err != nil {
		t.Fatal(err)
	}
	blockerLines := openStream(t, ts.URL, blocker.ID, "interval_ms=60000")
	for l := nextLine(t, blockerLines); l.line.Status != StatusRunning; l = nextLine(t, blockerLines) {
		if l.line.Status != StatusQueued {
			t.Fatalf("blocker line %+v before running", l.line)
		}
	}
	lines := openStream(t, ts.URL, sweep.ID, "interval_ms=60000")
	if l := nextLine(t, lines); l.line.Status != StatusQueued {
		t.Fatalf("first sweep line %+v, want queued behind the blocker", l.line)
	}
	s.Cancel(blocker.ID)
	l := nextLine(t, blockerLines)
	checkPushed(t, l, s.Get(blocker.ID))
	checkEnded(t, blockerLines)

	var got []string
	for {
		l = nextLine(t, lines)
		got = append(got, fmt.Sprintf("%s %d/%d", l.line.Status, l.line.Completed, l.line.Total))
		if l.line.Status != StatusRunning {
			break
		}
	}
	checkPushed(t, l, s.Get(sweep.ID))
	checkEnded(t, lines)
	// The last point's line and the terminal line may fall together.
	want := []string{"running 0/0", "running 1/3", "running 2/3", "running 3/3", "done 3/3"}
	if !slices.Equal(got, want) && !slices.Equal(got, slices.Delete(slices.Clone(want), 3, 4)) {
		t.Fatalf("sweep stream %q, want %q", got, want)
	}
}

// TestAPIStreamCancelAndClose pins the other ends of a stream at
// interval_ms=60000: a queued job's cancellation is pushed at once, and the
// stream of a job that never runs ends, after one last line, when the
// server closes.
func TestAPIStreamCancelAndClose(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: -1})
	var ids []string
	for i := 0; i < 2; i++ {
		j, err := s.Submit(JobSpec{Kind: KindSimulate, Target: "majority", Input: []int64{6, 4}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	cancelled := openStream(t, ts.URL, ids[0], "interval_ms=60000")
	queued := openStream(t, ts.URL, ids[1], "interval_ms=60000")
	for _, ch := range []<-chan streamed{cancelled, queued} {
		if l := nextLine(t, ch); l.line.Status != StatusQueued {
			t.Fatalf("first line %+v, want queued", l.line)
		}
	}
	s.Cancel(ids[0])
	checkPushed(t, nextLine(t, cancelled), s.Get(ids[0]))
	checkEnded(t, cancelled)

	s.Close()
	if l := nextLine(t, queued); l.line.Status != StatusQueued {
		t.Fatalf("last line %+v, want the job still queued", l.line)
	}
	checkEnded(t, queued)
}
