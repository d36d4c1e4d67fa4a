package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/protocol"
	"repro/internal/serve"
	"repro/internal/simulate"
)

var serveWorkload = workload{
	name:        "serve",
	why:         "ppserved jobs over loopback HTTP from 2 closed-loop clients: cache-hit reads beside cache-miss conversions and fsynced job state",
	clients:     2,
	passSeconds: 1.25,
	setup:       setupServe,
}

// Job kinds of the serve mix.
const (
	jobSimSmall    = "sim-small"    // majority [550,450], exact kernel, 4 runs
	jobSimLarge    = "sim-large"    // majority m = 10⁶, batch kernel, 2 runs
	jobExploreHit  = "explore-hit"  // a program the cache already holds
	jobExploreMiss = "explore-miss" // a program under a fresh name: always a miss
)

// serveMix is one pass of jobs: 40% sim-small, 20% sim-large, 25%
// explore-hit, 15% explore-miss.
type serveMix struct {
	simSmall, simLarge, hit, miss int
	// largeM is the sim-large population; windowSum is a+b of the
	// explore-miss window programs (a ≤ x < b), which fixes their cost.
	largeM    int64
	windowSum int
	// hit is the explore-hit job; its explored state count is hitStates.
	hitSpec   serve.JobSpec
	hitStates int
	// missStates is the explored state count of every explore-miss job.
	missStates int
}

// exploreInput is the input of the explore jobs: |F| = 11 agents, all of
// which the leaderless protocol needs as pointer agents, so x = 0 and every
// window program (1 ≤ a) must reject.
var exploreInput = []int64{11}

var serveFull = serveMix{
	simSmall: 8, simLarge: 4, hit: 5, miss: 3,
	largeM: 1e6, windowSum: 11,
	hitSpec:   serve.JobSpec{Kind: serve.KindExplore, Target: "figure1", Optimize: true, Input: exploreInput, Workers: 1},
	hitStates: 1_124, missStates: 1_124,
}

var serveSmoke = serveMix{
	simSmall: 18, simLarge: 1, hit: 1, miss: 1,
	largeM: 1e4, windowSum: 3,
	hitSpec: serve.JobSpec{Kind: serve.KindExplore, Program: windowSource("smoke_hit", 1, 2),
		Optimize: true, Input: exploreInput, Workers: 1},
	hitStates: 1_124, missStates: 1_124,
}

type serveInst struct {
	seed   int64
	mix    serveMix
	dir    string
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	// programs counts the explore-miss programs handed out, so every one
	// gets a name the server has never seen.
	programs int
}

func setupServe(cfg config) (instance, error) {
	mix := serveFull
	if cfg.smoke {
		mix = serveSmoke
	}
	// The state directory lives in the output directory so every write
	// stays inside the checkout; it is removed on close.
	dir, err := os.MkdirTemp(cfg.outDir, "serve-state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{StateDir: dir, Workers: 2})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s := &serveInst{
		seed: cfg.seed, mix: mix, dir: dir, srv: srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		// Two clients, so at most two connections.
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
		},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *serveInst) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
	s.srv.Close()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// pass draws the job order, the simulation seeds and the explore-miss
// windows from (seed, pass).
func (s *serveInst) pass(p int) []op {
	rng := passRand(s.seed, p)
	m := s.mix
	var ops []op
	for i := 0; i < m.simSmall; i++ {
		ops = append(ops, s.simJob(jobSimSmall, []int64{550, 450}, simulate.KernelExact, 4, rng.Int63()))
	}
	for i := 0; i < m.simLarge; i++ {
		ops = append(ops, s.simJob(jobSimLarge, majorityInput(m.largeM), simulate.KernelBatch, 2, rng.Int63()))
	}
	for i := 0; i < m.hit; i++ {
		ops = append(ops, s.exploreJob(jobExploreHit, m.hitSpec, m.hitStates))
	}
	for i := 0; i < m.miss; i++ {
		a := 1 + rng.Intn(m.windowSum/2)
		s.programs++
		name := fmt.Sprintf("window_%d_%d_%d", a, m.windowSum-a, s.programs)
		spec := serve.JobSpec{Kind: serve.KindExplore, Program: windowSource(name, a, m.windowSum-a),
			Optimize: true, Input: exploreInput, Workers: 1}
		ops = append(ops, s.exploreJob(jobExploreMiss, spec, m.missStates))
	}
	return shuffled(ops, rng)
}

func (s *serveInst) simJob(kind string, input []int64, kernel string, runs int, seed int64) op {
	var m int64
	for _, v := range input {
		m += v
	}
	spec := serve.JobSpec{
		Kind: serve.KindSimulate, Target: "majority", Input: input, Kernel: kernel,
		Runs: runs, Seed: seed, StableWindow: stableWindowPT * m, MaxSteps: maxStepsPT * m,
	}
	return s.jobOp(kind, spec, func(raw json.RawMessage) error {
		var res struct {
			Stats simulate.ConvergenceStats `json:"stats"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		if res.Stats.Runs != runs || res.Stats.WrongOutputs != 0 {
			return fmt.Errorf("%d runs with %d wrong outputs, want %d runs with none",
				res.Stats.Runs, res.Stats.WrongOutputs, runs)
		}
		return nil
	})
}

func (s *serveInst) exploreJob(kind string, spec serve.JobSpec, states int) op {
	return s.jobOp(kind, spec, func(raw json.RawMessage) error {
		var res struct {
			NumStates int      `json:"num_states"`
			Outcomes  []string `json:"outcomes"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		for _, o := range res.Outcomes {
			if o != protocol.OutputFalse.String() {
				return fmt.Errorf("outcomes %v, want all false", res.Outcomes)
			}
		}
		if len(res.Outcomes) == 0 || res.NumStates != states {
			return fmt.Errorf("%d states with outcomes %v, golden %d states",
				res.NumStates, res.Outcomes, states)
		}
		return nil
	})
}

// jobOp is one job as a client sees it: submit, follow the status stream
// to a terminal state, fetch the result and check it.
func (s *serveInst) jobOp(kind string, spec serve.JobSpec, check func(json.RawMessage) error) op {
	body, err := json.Marshal(spec)
	return op{
		kind: kind,
		run: func(c *opCtx) error {
			if err != nil {
				return err
			}
			t0 := time.Now()
			var job serve.Job
			if err := c.call("serve.submit", func() error {
				return s.do(http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted, &job)
			}); err != nil {
				return err
			}
			if err := c.call("serve.stream", func() error { return s.follow(job.ID) }); err != nil {
				return err
			}
			if err := c.call("serve.result", func() error {
				return s.do(http.MethodGet, "/api/v1/jobs/"+job.ID+"/result", nil, http.StatusOK, &job)
			}); err != nil {
				return err
			}
			client := time.Since(t0)
			if job.Status != serve.StatusDone {
				return fmt.Errorf("job %s %s: %s", job.ID, job.Status, job.Error)
			}
			if job.Started != nil && job.Finished != nil {
				c.count("serve.queue_wait_ms", msOf(job.Started.Sub(job.Created)))
				c.count("serve.run_ms", msOf(job.Finished.Sub(*job.Started)))
				c.count("serve.client_overhead_ms", msOf(client-job.Finished.Sub(job.Created)))
			}
			return check(job.Result)
		},
	}
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// do sends one request and decodes the JSON reply into out.
func (s *serveInst) do(method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// follow reads the job's NDJSON status stream until it reports a terminal
// status.
func (s *serveInst) follow(id string) error {
	resp, err := s.client.Get(s.base + "/api/v1/jobs/" + id + "/stream?interval_ms=10")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	// With telemetry on, every line carries a full obs snapshot.
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var line struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("stream %s: %w", id, err)
		}
		switch line.Status {
		case serve.StatusDone, serve.StatusFailed, serve.StatusCancelled:
			// Drain so the connection can be reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream %s: %w", id, err)
	}
	return fmt.Errorf("stream %s ended before a terminal status", id)
}
