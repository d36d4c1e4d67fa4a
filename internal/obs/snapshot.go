package obs

import (
	"encoding/json"
	"io"
	"time"
)

// HistSnap is the frozen form of a Hist.
type HistSnap struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// Log2Buckets[i] counts observations of bit-length i (bucket 0 is the
	// value 0, bucket i ≥ 1 is [2^(i−1), 2^i)); trailing zero buckets are
	// trimmed.
	Log2Buckets []int64 `json:"log2_buckets,omitempty"`
}

// SchedSnap is the frozen scheduler group.
type SchedSnap struct {
	Steps              int64    `json:"steps"`
	Effective          int64    `json:"effective"`
	NullsSkipped       int64    `json:"nulls_skipped"`
	GeomSkips          HistSnap `json:"geom_skips"`
	FenwickRebuilds    int64    `json:"fenwick_rebuilds"`
	BatchRounds        int64    `json:"batch_rounds"`
	BatchRoundSize     HistSnap `json:"batch_round_size"`
	BatchFallbacks     int64    `json:"batch_fallbacks"`
	InteractionsPerSec int64    `json:"interactions_per_sec"`
	GraphSteps         int64    `json:"graph_steps"`
	TopoInteractions   []int64  `json:"topo_interactions,omitempty"`
	Crashes            int64    `json:"crashes"`
	Revives            int64    `json:"revives"`
	Joins              int64    `json:"joins"`
	StarvationGap      HistSnap `json:"starvation_gap"`
	FluidChunks        int64    `json:"fluid_chunks"`
	DiscreteChunks     int64    `json:"discrete_chunks"`
	RegimeSwitches     int64    `json:"regime_switches"`
	FluidRKSteps       int64    `json:"fluid_rk_steps"`
	FluidRKRejects     int64    `json:"fluid_rk_rejects"`
}

// SimSnap is the frozen simulation group.
type SimSnap struct {
	RunsStarted        int64    `json:"runs_started"`
	RunsFinished       int64    `json:"runs_finished"`
	Convergence        HistSnap `json:"convergence"`
	Quiescent          int64    `json:"quiescent"`
	WorkerRuns         []int64  `json:"worker_runs,omitempty"`
	WorkerNanos        []int64  `json:"worker_nanos,omitempty"`
	CheckpointsWritten int64    `json:"checkpoints_written"`
	SweepPointsResumed int64    `json:"sweep_points_resumed"`
}

// ExploreSnap is the frozen exploration group. StatesPerSec is derived:
// States divided by the engine-internal wall time.
type ExploreSnap struct {
	Explorations      int64    `json:"explorations"`
	Levels            int64    `json:"levels"`
	Frontier          HistSnap `json:"frontier"`
	States            int64    `json:"states"`
	Edges             int64    `json:"edges"`
	Nanos             int64    `json:"nanos"`
	StatesPerSec      float64  `json:"states_per_sec"`
	Cancellations     int64    `json:"cancellations"`
	InternArenaBytes  int64    `json:"intern_arena_bytes"`
	InternCollisions  int64    `json:"intern_collisions"`
	InternShard       []int64  `json:"intern_shard,omitempty"`
	SpillSegments     int64    `json:"spill_segments"`
	SpillBytes        int64    `json:"spill_bytes"`
	SpillReadBytes    int64    `json:"spill_read_bytes"`
	SpillResidentPeak int64    `json:"spill_resident_peak"`
}

// ServeSnap is the frozen server group.
type ServeSnap struct {
	JobsSubmitted  int64 `json:"jobs_submitted"`
	JobsCompleted  int64 `json:"jobs_completed"`
	JobsFailed     int64 `json:"jobs_failed"`
	JobsCancelled  int64 `json:"jobs_cancelled"`
	JobsRejected   int64 `json:"jobs_rejected"`
	QueueDepth     int64 `json:"queue_depth"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	Conversions    int64 `json:"conversions"`
	ConvertNanos   int64 `json:"convert_nanos"`
	JobsResumed    int64 `json:"jobs_resumed"`
	StreamClients  int64 `json:"stream_clients"`
}

// OptSnap is the frozen shrink-pipeline group.
type OptSnap struct {
	Runs                int64 `json:"runs"`
	InstrsRemoved       int64 `json:"instrs_removed"`
	DomainValuesRemoved int64 `json:"domain_values_removed"`
	StatesRemoved       int64 `json:"states_removed"`
	TransitionsRemoved  int64 `json:"transitions_removed"`
	Nanos               int64 `json:"nanos"`
}

// Snap is a point-in-time copy of every instrument, as plain data. It is
// what -metrics prints and what /debug/vars exposes.
type Snap struct {
	Sched   SchedSnap   `json:"sched"`
	Sim     SimSnap     `json:"sim"`
	Explore ExploreSnap `json:"explore"`
	Serve   ServeSnap   `json:"serve"`
	Opt     OptSnap     `json:"opt"`
}

// Snapshot freezes m. Safe to call concurrently with live instrumentation;
// each field is individually exact at its read point.
func (m *Metrics) Snapshot() Snap {
	var s Snap
	if m == nil {
		return s
	}
	s.Sched = SchedSnap{
		Steps:              m.sched.Steps.Load(),
		Effective:          m.sched.Effective.Load(),
		NullsSkipped:       m.sched.NullsSkipped.Load(),
		GeomSkips:          m.sched.GeomSkips.snapshot(),
		FenwickRebuilds:    m.sched.FenwickRebuilds.Load(),
		BatchRounds:        m.sched.BatchRounds.Load(),
		BatchRoundSize:     m.sched.BatchRoundSize.snapshot(),
		BatchFallbacks:     m.sched.BatchFallbacks.Load(),
		InteractionsPerSec: m.sched.InteractionsPerSec.Load(),
		GraphSteps:         m.sched.GraphSteps.Load(),
		TopoInteractions:   m.sched.TopoInteractions.snapshot(),
		Crashes:            m.sched.Crashes.Load(),
		Revives:            m.sched.Revives.Load(),
		Joins:              m.sched.Joins.Load(),
		StarvationGap:      m.sched.StarvationGap.snapshot(),
		FluidChunks:        m.sched.FluidChunks.Load(),
		DiscreteChunks:     m.sched.DiscreteChunks.Load(),
		RegimeSwitches:     m.sched.RegimeSwitches.Load(),
		FluidRKSteps:       m.sched.FluidRKSteps.Load(),
		FluidRKRejects:     m.sched.FluidRKRejects.Load(),
	}
	s.Sim = SimSnap{
		RunsStarted:        m.sim.RunsStarted.Load(),
		RunsFinished:       m.sim.RunsFinished.Load(),
		Convergence:        m.sim.Convergence.snapshot(),
		Quiescent:          m.sim.Quiescent.Load(),
		WorkerRuns:         m.sim.WorkerRuns.snapshot(),
		WorkerNanos:        m.sim.WorkerNanos.snapshot(),
		CheckpointsWritten: m.sim.CheckpointsWritten.Load(),
		SweepPointsResumed: m.sim.SweepPointsResumed.Load(),
	}
	s.Explore = ExploreSnap{
		Explorations:      m.explore.Explorations.Load(),
		Levels:            m.explore.Levels.Load(),
		Frontier:          m.explore.Frontier.snapshot(),
		States:            m.explore.States.Load(),
		Edges:             m.explore.Edges.Load(),
		Nanos:             m.explore.Nanos.Load(),
		Cancellations:     m.explore.Cancellations.Load(),
		InternArenaBytes:  m.explore.InternArenaBytes.Load(),
		InternCollisions:  m.explore.InternCollisions.Load(),
		InternShard:       m.explore.InternShard.snapshot(),
		SpillSegments:     m.explore.SpillSegments.Load(),
		SpillBytes:        m.explore.SpillBytes.Load(),
		SpillReadBytes:    m.explore.SpillReadBytes.Load(),
		SpillResidentPeak: m.explore.SpillResidentPeak.Load(),
	}
	if s.Explore.Nanos > 0 {
		s.Explore.StatesPerSec = float64(s.Explore.States) / (float64(s.Explore.Nanos) / 1e9)
	}
	s.Serve = ServeSnap{
		JobsSubmitted:  m.serve.JobsSubmitted.Load(),
		JobsCompleted:  m.serve.JobsCompleted.Load(),
		JobsFailed:     m.serve.JobsFailed.Load(),
		JobsCancelled:  m.serve.JobsCancelled.Load(),
		JobsRejected:   m.serve.JobsRejected.Load(),
		QueueDepth:     m.serve.QueueDepth.Load(),
		CacheHits:      m.serve.CacheHits.Load(),
		CacheMisses:    m.serve.CacheMisses.Load(),
		CacheEvictions: m.serve.CacheEvictions.Load(),
		Conversions:    m.serve.Conversions.Load(),
		ConvertNanos:   m.serve.ConvertNanos.Load(),
		JobsResumed:    m.serve.JobsResumed.Load(),
		StreamClients:  m.serve.StreamClients.Load(),
	}
	s.Opt = OptSnap{
		Runs:                m.opt.Runs.Load(),
		InstrsRemoved:       m.opt.InstrsRemoved.Load(),
		DomainValuesRemoved: m.opt.DomainValuesRemoved.Load(),
		StatesRemoved:       m.opt.StatesRemoved.Load(),
		TransitionsRemoved:  m.opt.TransitionsRemoved.Load(),
		Nanos:               m.opt.Nanos.Load(),
	}
	return s
}

// Snapshot freezes the process-wide metric set. ok is false when telemetry
// is disabled (the zero Snap is returned).
func Snapshot() (s Snap, ok bool) {
	m := Current()
	if m == nil {
		return Snap{}, false
	}
	return m.Snapshot(), true
}

// WriteJSON writes the current snapshot to w as a single JSON line. When
// telemetry is disabled it writes a zero snapshot, so callers always emit
// well-formed JSON.
func WriteJSON(w io.Writer) error {
	s, _ := Snapshot()
	enc, err := json.Marshal(s)
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// StartEmitter writes one snapshot line to w immediately and then every
// interval, until the returned stop function is called. Emission errors stop
// the emitter silently (progress lines are best-effort). stop waits for the
// emitter goroutine to exit, so it is safe to close or reuse w afterwards.
func StartEmitter(w io.Writer, interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if WriteJSON(w) != nil {
			return
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if WriteJSON(w) != nil {
					return
				}
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}
