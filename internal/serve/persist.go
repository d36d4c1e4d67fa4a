package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/obs"
)

func (s *Server) jobsDir() string        { return filepath.Join(s.cfg.StateDir, "jobs") }
func (s *Server) checkpointsDir() string { return filepath.Join(s.cfg.StateDir, "checkpoints") }
func (s *Server) convertDir() string     { return filepath.Join(s.cfg.StateDir, "convert") }
func (s *Server) spillDir() string       { return filepath.Join(s.cfg.StateDir, "spill") }

// persistJob snapshots j's document for StateDir/jobs/<id>.json and
// returns the write, which the caller runs after releasing s.mu: status
// reads, stream polls and submits never wait behind its fsync. Callers hold
// s.mu (except recover, which runs before the workers start), so the
// snapshot is consistent and its sequence number orders it after every
// earlier snapshot of the job. A write lands only if no newer snapshot of
// the job has landed before it, so a Submit's "queued" write that runs
// after the worker's "done" write cannot resurrect a finished job on the
// next restart. Persistence is best-effort bookkeeping of an in-memory
// store — a write failure must not fail the job — but sweeps additionally
// checkpoint through internal/simulate, which is where crash durability
// lives.
func (s *Server) persistJob(j *Job) (write func()) {
	if s.cfg.StateDir == "" {
		return func() {}
	}
	// Compact marshalling keeps the embedded Result RawMessage
	// byte-identical across a persist/reload round trip (indenting would
	// reformat it, breaking result bit-stability over restarts).
	data, err := json.Marshal(j)
	if err != nil {
		return func() {}
	}
	if j.file == nil {
		j.file = &jobFile{}
	}
	j.seq++
	f, seq, path := j.file, j.seq, filepath.Join(s.jobsDir(), j.ID+".json")
	return func() {
		f.mu.Lock()
		defer f.mu.Unlock()
		if seq <= f.written {
			return // a newer snapshot is on disk already
		}
		_ = atomicfile.Write(path, data) // best-effort, see above
		f.written = seq
	}
}

// jobFile serialises the writes of one job's file and remembers which
// snapshot the last of them wrote.
type jobFile struct {
	mu      sync.Mutex
	written uint64 // Job.seq of the snapshot written last; 0 = none yet
}

// recover reloads persisted jobs at startup. Terminal jobs come back as
// queryable history; queued and running jobs are re-enqueued from scratch
// (a half-run sweep finds its checkpoint and resumes bit-identically).
// Called from New before the workers start, so enqueueing cannot race.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir())
	if err != nil {
		return err
	}
	var jobs []*Job
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(s.jobsDir(), e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			return fmt.Errorf("serve: corrupt job file %s: %w", path, err)
		}
		if j.ID == "" {
			return fmt.Errorf("serve: job file %s has no id", path)
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID < jobs[k].ID })

	met := obs.Serve()
	for _, j := range jobs {
		if _, dup := s.jobs[j.ID]; dup {
			return fmt.Errorf("serve: duplicate job id %s", j.ID)
		}
		if !j.terminal() {
			// The previous process died with this job live. Requeue it;
			// determinism of the engines makes the rerun equivalent, and
			// checkpointed sweeps skip already-completed points.
			j.Status = StatusQueued
			j.Started = nil
			j.Completed, j.Total = 0, 0
			select {
			case s.queue <- j:
				if met != nil {
					met.JobsResumed.Inc()
				}
			default:
				now := time.Now().UTC()
				j.Status = StatusFailed
				j.Error = "not re-enqueued after restart: job queue full"
				j.Finished = &now
			}
			s.persistJob(j)()
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		// IDs are j%06d; keep allocating above the recovered ones.
		var n int
		if _, err := fmt.Sscanf(j.ID, "j%d", &n); err == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return nil
}
