package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/convert"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/simulate"
)

// Config tunes a Server. Zero values pick the documented defaults.
type Config struct {
	// QueueDepth bounds the number of queued-but-not-running jobs; a full
	// queue rejects submissions with 429. Default 64.
	QueueDepth int
	// Workers is the number of concurrent job runners. Default 2. A
	// negative value starts no workers at all — submissions queue but
	// never run — which tests use to exercise queue-full behaviour
	// deterministically.
	Workers int
	// CacheSize bounds the compiled-protocol LRU cache. Default 32.
	CacheSize int
	// StateDir, when set, persists jobs (StateDir/jobs), sweep checkpoints
	// (StateDir/checkpoints) and completed conversions (StateDir/convert)
	// across restarts: New re-loads all jobs and re-enqueues the
	// non-terminal ones, checkpointed sweeps resume bit-identically instead
	// of recomputing completed points, and the compiled-protocol cache
	// boots warm from its persisted skeletons. Explore jobs running under a
	// memory budget also place their (per-run, self-cleaning) spill
	// directories under StateDir/spill instead of the system temp dir.
	StateDir string
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c Config) workers() int {
	if c.Workers < 0 {
		return 0
	}
	if c.Workers == 0 {
		return 2
	}
	return c.Workers
}

func (c Config) cacheSize() int {
	if c.CacheSize <= 0 {
		return 32
	}
	return c.CacheSize
}

// ErrQueueFull is returned by Submit when the job queue is at capacity.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// Server owns the job store, the bounded queue, the worker pool, and the
// compiled-protocol cache. Create with New, mount Handler on an HTTP
// server, and Close to drain.
type Server struct {
	cfg   Config
	cache *Cache

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup
	// stopped is closed once Close has stopped the workers: no job changes
	// after it, so the job streams end.
	stopped   chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing
	nextID int
	closed bool
}

// New builds a Server, recovers persisted jobs from cfg.StateDir (if any),
// and starts the worker pool.
func New(cfg Config) (*Server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.cacheSize()),
		baseCtx: ctx,
		stop:    cancel,
		queue:   make(chan *Job, cfg.queueDepth()),
		stopped: make(chan struct{}),
		jobs:    make(map[string]*Job),
		nextID:  1,
	}
	if cfg.StateDir != "" {
		for _, dir := range []string{s.jobsDir(), s.checkpointsDir(), s.spillDir()} {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				cancel()
				return nil, err
			}
		}
		if err := s.cache.Persist(s.convertDir()); err != nil {
			cancel()
			return nil, err
		}
		if err := s.recover(); err != nil {
			cancel()
			s.cache.Close()
			return nil, err
		}
	}
	for w := 0; w < cfg.workers(); w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for j := range s.queue {
				s.runJob(j)
			}
		}()
	}
	return s, nil
}

// Close stops accepting submissions, cancels running jobs, waits for the
// workers to exit, ends the job streams and drains the cache's skeleton
// writer. Jobs still queued stay queued: no worker starts one once Close
// has begun, and a server restarted on the same StateDir re-enqueues them
// as it does after a crash. Every call returns only once the close has
// finished.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.stop()
		close(s.queue)
		s.wg.Wait()
		close(s.stopped)
		s.cache.Close()
	})
}

// Submit validates, registers, and enqueues a job. It returns ErrQueueFull
// when the bounded queue is at capacity and ErrClosed after Close; any
// other error is a validation failure.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Checkpoint != "" && s.cfg.StateDir == "" {
		return nil, errors.New("checkpoint requires a server state directory (-state-dir)")
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	j := &Job{
		ID:      fmt.Sprintf("j%06d", s.nextID),
		Spec:    spec,
		Status:  StatusQueued,
		Created: time.Now().UTC(),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		if met := obs.Serve(); met != nil {
			met.JobsRejected.Inc()
		}
		return nil, ErrQueueFull
	}
	s.nextID++
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	write := s.persistJob(j)
	snapshot := *j
	s.mu.Unlock()
	write()

	if met := obs.Serve(); met != nil {
		met.JobsSubmitted.Inc()
		met.QueueDepth.Set(int64(len(s.queue)))
	}
	return &snapshot, nil
}

// Get returns a copy of the job, or nil if unknown.
func (s *Server) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil
	}
	cp := *j
	return &cp
}

// watch returns a copy of the job, or nil if unknown, and a channel that is
// closed at the job's next change of status or progress. Both are read
// under one lock, so no change falls between the copy and the wait.
func (s *Server) watch(id string) (*Job, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil
	}
	if j.changed == nil {
		j.changed = make(chan struct{})
	}
	cp := *j
	return &cp, j.changed
}

// List returns copies of all jobs in submission order.
func (s *Server) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		cp := *s.jobs[id]
		out = append(out, &cp)
	}
	return out
}

// Cancel cancels a job: queued jobs are marked cancelled before they start,
// running jobs get their context cancelled (sweeps stop at the next point
// boundary and checkpoint; explore aborts). Terminal jobs are left alone.
// It returns the job's status after the cancel, or "" if unknown.
func (s *Server) Cancel(id string) string {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ""
	}
	write := func() {}
	switch j.Status {
	case StatusQueued:
		j.Status = StatusCancelled
		now := time.Now().UTC()
		j.Finished = &now
		j.notify()
		write = s.persistJob(j)
		if met := obs.Serve(); met != nil {
			met.JobsCancelled.Inc()
		}
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	status := j.Status
	s.mu.Unlock()
	write()
	return status
}

// setStatus transitions a job, wakes its streams and persists the new
// state.
func (s *Server) setStatus(j *Job, mutate func(*Job)) {
	s.mu.Lock()
	mutate(j)
	j.notify()
	write := s.persistJob(j)
	s.mu.Unlock()
	write()
}

// specHash is the identity of a sweep spec, used as the checkpoint key so a
// checkpoint file can never be replayed into a different sweep.
func specHash(spec JobSpec) string {
	data, err := json.Marshal(spec)
	if err != nil {
		// JobSpec has no unmarshalable fields; keep the signature simple.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// runJob executes one job on a worker goroutine.
func (s *Server) runJob(j *Job) {
	met := obs.Serve()
	s.mu.Lock()
	// A job cancelled while queued is done with; one still queued when
	// Close began stays queued for the next server to recover.
	if j.Status != StatusQueued || s.closed {
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	now := time.Now().UTC()
	j.Status = StatusRunning
	j.Started = &now
	j.cancel = cancel
	j.notify()
	write := s.persistJob(j)
	s.mu.Unlock()
	write()
	if met != nil {
		met.QueueDepth.Set(int64(len(s.queue)))
	}

	result, cacheKey, err := s.execute(ctx, j)
	s.setStatus(j, func(j *Job) {
		now := time.Now().UTC()
		j.Finished = &now
		j.cancel = nil
		j.CacheKey = cacheKey
		switch {
		case err == nil:
			j.Status = StatusDone
			j.Result = result
			if met != nil {
				met.JobsCompleted.Inc()
			}
		case errors.Is(err, context.Canceled):
			j.Status = StatusCancelled
			j.Result = result // partial sweep results, if any
			if met != nil {
				met.JobsCancelled.Inc()
			}
		default:
			j.Status = StatusFailed
			j.Error = err.Error()
			if met != nil {
				met.JobsFailed.Inc()
			}
		}
	})
}

// execute runs the job body and returns the result document. Program
// submissions resolve to protocols through the compiled-protocol cache; the
// returned cacheKey is the program's canonical hash ("" for built-in
// protocol targets).
func (s *Server) execute(ctx context.Context, j *Job) (json.RawMessage, string, error) {
	spec := j.Spec
	opts, err := spec.options()
	if err != nil {
		return nil, "", err
	}
	b, err := spec.build()
	if err != nil {
		return nil, "", err
	}
	p := b.Protocol
	var cacheKey string
	var conv *convertInfo
	if p == nil {
		res, report, key, err := s.cache.Convert(b.Program, spec.Optimize)
		if err != nil {
			return nil, key, err
		}
		cacheKey = key
		p = res.Protocol
		conv = &convertInfo{
			NumPointers: res.NumPointers,
			CoreStates:  res.CoreStates,
		}
		if report != nil {
			conv.Pipeline = report.Pipeline
			conv.Opt = report
		}
	}
	expected := spec.expectedFn(b)

	switch spec.Kind {
	case KindSimulate:
		stats, samples, err := simulate.MeasureConvergenceWithSamples(
			p, spec.Input, expected(spec.Input), spec.runs(), spec.seed(), opts)
		if err != nil {
			return nil, cacheKey, err
		}
		return mustJSON(simulateResult{
			Kind:     KindSimulate,
			Protocol: protoInfo(p),
			Convert:  conv,
			Stats:    stats,
			Samples:  samples,
		}), cacheKey, nil

	case KindSweep:
		var ck *simulate.SweepCheckpointConfig
		if spec.Checkpoint != "" {
			ck = &simulate.SweepCheckpointConfig{
				Path: filepath.Join(s.checkpointsDir(), spec.Checkpoint+".json"),
				Key:  specHash(spec),
				Progress: func(done, total int) {
					s.mu.Lock()
					j.Completed, j.Total = done, total
					j.notify()
					s.mu.Unlock()
				},
			}
		}
		points, err := simulate.SweepResumable(ctx, p, spec.Inputs, expected,
			spec.runs(), spec.seed(), opts, ck)
		res := sweepResult{Kind: KindSweep, Protocol: protoInfo(p), Convert: conv}
		for i, pt := range points {
			sp := sweepPointResult{Inputs: spec.Inputs[i], Stats: pt.Stats}
			if pt.Err != nil {
				sp.Err = pt.Err.Error()
			}
			if pt.Stats != nil || pt.Err != nil {
				sp.Done = true
			}
			res.Points = append(res.Points, sp)
		}
		return mustJSON(res), cacheKey, err

	case KindExplore:
		init, err := p.InitialConfig(spec.Input...)
		if err != nil {
			return nil, cacheKey, err
		}
		sys := explore.NewProtocolSystem(p)
		exOpts := explore.Options{
			MaxStates: spec.MaxStates,
			Workers:   spec.Workers,
			MemBudget: spec.MemBudget,
		}
		if s.cfg.StateDir != "" {
			// The engine creates a per-run directory under this and removes
			// it on every exit path, so a finished (or cancelled, or failed)
			// job leaves nothing behind.
			exOpts.SpillDir = s.spillDir()
		}
		exRes, err := explore.ExploreContext(ctx, sys,
			[]*multiset.Multiset{init}, exOpts)
		if err != nil {
			return nil, cacheKey, err
		}
		out := exploreResult{
			Kind:          KindExplore,
			Protocol:      protoInfo(p),
			Convert:       conv,
			NumStates:     exRes.NumStates,
			NumBottomSCCs: exRes.NumBottomSCCs,
			WitnessKeys:   exRes.WitnessKeys,
		}
		for _, o := range exRes.Outcomes {
			out.Outcomes = append(out.Outcomes, fmt.Sprint(o))
		}
		return mustJSON(out), cacheKey, nil

	default: // unreachable: Validate gates kinds
		return nil, cacheKey, fmt.Errorf("unknown kind %q", spec.Kind)
	}
}

// Result documents, one per job kind.

type protocolInfo struct {
	Name        string `json:"name"`
	States      int    `json:"states"`
	Transitions int    `json:"transitions"`
}

func protoInfo(p *protocol.Protocol) protocolInfo {
	return protocolInfo{Name: p.Name, States: p.NumStates(), Transitions: len(p.Transitions)}
}

// convertInfo reports the §7 conversion accounting for program submissions.
// Pipeline and Opt are present iff the job requested the shrink pipeline;
// warm cache hits carry them too (the report is stored with the entry).
type convertInfo struct {
	NumPointers int                `json:"num_pointers"`
	CoreStates  int                `json:"core_states"`
	Pipeline    string             `json:"pipeline,omitempty"`
	Opt         *convert.OptReport `json:"opt,omitempty"`
}

type simulateResult struct {
	Kind     string                     `json:"kind"`
	Protocol protocolInfo               `json:"protocol"`
	Convert  *convertInfo               `json:"convert,omitempty"`
	Stats    *simulate.ConvergenceStats `json:"stats"`
	// Samples are the per-run interaction counts — the RNG trace of the
	// job, which the cache differential test asserts is bit-identical
	// between cold-miss and warm-hit submissions.
	Samples []float64 `json:"samples"`
}

type sweepPointResult struct {
	Inputs []int64                    `json:"inputs"`
	Stats  *simulate.ConvergenceStats `json:"stats,omitempty"`
	Err    string                     `json:"err,omitempty"`
	Done   bool                       `json:"done"`
}

type sweepResult struct {
	Kind     string             `json:"kind"`
	Protocol protocolInfo       `json:"protocol"`
	Convert  *convertInfo       `json:"convert,omitempty"`
	Points   []sweepPointResult `json:"points"`
}

type exploreResult struct {
	Kind          string       `json:"kind"`
	Protocol      protocolInfo `json:"protocol"`
	Convert       *convertInfo `json:"convert,omitempty"`
	NumStates     int          `json:"num_states"`
	NumBottomSCCs int          `json:"num_bottom_sccs"`
	Outcomes      []string     `json:"outcomes"`
	WitnessKeys   []string     `json:"witness_keys"`
}

func mustJSON(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // result documents are plain structs; cannot fail
	}
	return data
}
