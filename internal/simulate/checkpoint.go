package simulate

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/atomicfile"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/protocol"
)

// SweepCheckpointVersion is the version of sweep checkpoints. It covers the
// on-disk format and the sampling law behind the stored points: version 2
// draws runs with an empty Kernel from the batched exact sampler, so a
// version 1 file, whose empty-kernel points came from the per-step
// random-pair stream under the same spec, is refused instead of merged.
const SweepCheckpointVersion = 2

// SweepPointSeed derives the base PRNG seed of sweep point idx from the
// sweep seed: every run i of point idx draws its PRNG from
// SweepPointSeed(seed, idx)+i, so a point's result is a pure function of
// (protocol, inputs, runs, this seed, options) — which is what makes
// checkpointed points safe to restore without replaying them.
func SweepPointSeed(seed int64, idx int) int64 {
	return seed + int64(idx)*1_000_003
}

// SweepCheckpoint is the serialised progress of a resumable sweep: the
// identity of the sweep (key, runs, seed, point count) plus every completed
// point with its full statistics. Checkpoints are written atomically
// (temp file + rename in the same directory), so a reader never observes a
// torn file: after a crash the checkpoint holds exactly the points of some
// prefix of completions.
type SweepCheckpoint struct {
	Version int `json:"version"`
	// Key identifies the sweep spec; a caller-chosen string (the serve
	// package uses a hash of the job spec). Resuming with a different key
	// is an error — a checkpoint must never leak between sweeps.
	Key    string            `json:"key"`
	Runs   int               `json:"runs"`
	Seed   int64             `json:"seed"`
	Total  int               `json:"total"`
	Points []CheckpointPoint `json:"points"`
}

// CheckpointPoint is one completed sweep point in a checkpoint.
type CheckpointPoint struct {
	Index  int     `json:"index"`
	Inputs []int64 `json:"inputs"`
	// Seed is the point's RNG stream offset (SweepPointSeed(sweep seed,
	// Index)), recorded so a checkpoint is self-describing and resume can
	// verify the stream assignment did not drift.
	Seed  int64             `json:"seed"`
	Stats *ConvergenceStats `json:"stats,omitempty"`
	Err   string            `json:"err,omitempty"`
}

// LoadSweepCheckpoint reads a checkpoint file. A missing file is not an
// error: it returns (nil, nil), meaning "start fresh".
func LoadSweepCheckpoint(path string) (*SweepCheckpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var cp SweepCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("simulate: checkpoint %s: %w", path, err)
	}
	if cp.Version != SweepCheckpointVersion {
		return nil, fmt.Errorf("simulate: checkpoint %s: version %d, want %d",
			path, cp.Version, SweepCheckpointVersion)
	}
	return &cp, nil
}

// Save writes the checkpoint atomically (atomicfile.Write), so a
// concurrent crash leaves either the previous checkpoint or this one —
// never a torn file.
func (cp *SweepCheckpoint) Save(path string) error {
	data, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return err
	}
	if err := atomicfile.Write(path, data); err != nil {
		return err
	}
	if met := obs.Sim(); met != nil {
		met.CheckpointsWritten.Inc()
	}
	return nil
}

// SweepCheckpointConfig configures checkpointing of SweepResumable.
type SweepCheckpointConfig struct {
	// Path is the checkpoint file location. Its directory must exist.
	Path string
	// Key identifies the sweep spec. A checkpoint with a different key,
	// runs, seed, or point count is rejected rather than silently ignored.
	Key string
	// Progress, when non-nil, is called after each point completes (and
	// once per restored point), with the number of completed points and the
	// total. Calls are serialised.
	Progress func(done, total int)
}

// SweepResumable runs MeasureConvergence for each input vector and returns
// the points in input order. Points are par.Ordered tasks fanned out over
// opts.Workers goroutines, and each point measures its runs on its own
// goroutine, so at most opts.Workers runs execute at once. Point idx is
// measured with seed SweepPointSeed(seed, idx); a failed point records its
// error and the sweep continues, while invalid opts fail the sweep before
// any point runs. A nil ck runs without checkpoints.
// Otherwise the checkpoint at ck.Path is rewritten after every completed
// point, and when a valid checkpoint for the same sweep already exists there
// its points are restored instead of recomputed.
//
// Determinism: points are mutually independent and each is a pure function
// of its seed, so the result set is bit-identical for any worker count and
// to an uninterrupted sweep of the same spec, regardless of how many times
// the process was killed and resumed in between (the crash/resume tests pin
// this, SIGKILL included).
//
// Cancellation: when ctx is cancelled, no new points are started; points
// already in flight finish and are checkpointed, and the partial results
// are returned alongside ctx.Err().
func SweepResumable(ctx context.Context, p *protocol.Protocol, inputs [][]int64,
	expected func(in []int64) bool, runs int, seed int64,
	opts Options, ck *SweepCheckpointConfig) ([]SweepPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(inputs))
	done := make([]bool, len(inputs))

	var cp *SweepCheckpoint
	if ck != nil && ck.Path != "" {
		loaded, err := LoadSweepCheckpoint(ck.Path)
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			if loaded.Key != ck.Key || loaded.Runs != runs || loaded.Seed != seed || loaded.Total != len(inputs) {
				return nil, fmt.Errorf(
					"simulate: checkpoint %s belongs to a different sweep (key %q runs %d seed %d total %d; want %q %d %d %d)",
					ck.Path, loaded.Key, loaded.Runs, loaded.Seed, loaded.Total,
					ck.Key, runs, seed, len(inputs))
			}
			cp = loaded
		}
	}
	if cp == nil {
		cp = &SweepCheckpoint{
			Version: SweepCheckpointVersion,
			Runs:    runs,
			Seed:    seed,
			Total:   len(inputs),
		}
		if ck != nil {
			cp.Key = ck.Key
		}
	}

	// Restore completed points from the checkpoint.
	met := obs.Sim()
	completed := 0
	for _, cpp := range cp.Points {
		if cpp.Index < 0 || cpp.Index >= len(inputs) || done[cpp.Index] {
			return nil, fmt.Errorf("simulate: checkpoint %s: bad point index %d", ck.Path, cpp.Index)
		}
		if want := SweepPointSeed(seed, cpp.Index); cpp.Seed != want {
			return nil, fmt.Errorf("simulate: checkpoint %s: point %d has seed %d, want %d",
				ck.Path, cpp.Index, cpp.Seed, want)
		}
		pt := SweepPoint{Inputs: cpp.Inputs, Stats: cpp.Stats}
		if cpp.Err != "" {
			pt.Err = errors.New(cpp.Err)
		}
		points[cpp.Index] = pt
		done[cpp.Index] = true
		completed++
		if met != nil {
			met.SweepPointsResumed.Inc()
		}
		if ck != nil && ck.Progress != nil {
			ck.Progress(completed, len(inputs))
		}
	}

	// Measure the remaining points. mu serialises the checkpoint and the
	// Progress calls.
	var todo []int
	for idx := range inputs {
		if !done[idx] {
			todo = append(todo, idx)
		}
	}
	pointOpts := opts
	pointOpts.Workers = 1
	var (
		mu      sync.Mutex
		saveErr error
	)
	_, err := par.Ordered(ctx, len(todo), opts.Workers, func(_ context.Context, _, i int) error {
		idx := todo[i]
		in, pointSeed := inputs[idx], SweepPointSeed(seed, idx)
		stats, err := MeasureConvergence(p, in, expected(in), runs, pointSeed, pointOpts)
		points[idx] = SweepPoint{Inputs: in, Stats: stats, Err: err}
		cpp := CheckpointPoint{Index: idx, Inputs: in, Seed: pointSeed, Stats: stats}
		if err != nil {
			cpp.Err = err.Error()
		}

		mu.Lock()
		defer mu.Unlock()
		cp.Points = append(cp.Points, cpp)
		completed++
		if ck != nil && ck.Path != "" {
			sort.Slice(cp.Points, func(i, j int) bool { return cp.Points[i].Index < cp.Points[j].Index })
			if err := cp.Save(ck.Path); err != nil && saveErr == nil {
				saveErr = err
			}
		}
		if ck != nil && ck.Progress != nil {
			ck.Progress(completed, len(inputs))
		}
		return nil
	})
	if saveErr != nil {
		return points, fmt.Errorf("simulate: checkpoint save: %w", saveErr)
	}
	return points, err
}
