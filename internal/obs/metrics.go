package obs

import "sync/atomic"

// SchedMetrics instruments internal/sched's schedulers.
type SchedMetrics struct {
	// Steps counts scheduling decisions (interactions), including null
	// interactions that were skipped analytically rather than simulated.
	Steps Counter `json:"steps"`
	// Effective counts decisions that changed the configuration.
	Effective Counter `json:"effective"`
	// NullsSkipped counts null interactions that the batched fast path
	// collapsed into geometric draws instead of simulating one by one.
	NullsSkipped Counter `json:"nulls_skipped"`
	// GeomSkips records the length of each geometric null-run draw, i.e.
	// how many null interactions one draw replaced.
	GeomSkips Hist `json:"geom_skips"`
	// FenwickRebuilds counts full Fenwick-index rebuilds (scheduler
	// attaching to a configuration it was not tracking).
	FenwickRebuilds Counter `json:"fenwick_rebuilds"`
	// BatchRounds counts bulk rounds applied by the collision kernel: one
	// binomial/multinomial draw advancing a whole block of interactions.
	BatchRounds Counter `json:"batch_rounds"`
	// BatchRoundSize records the interaction count of each bulk round.
	BatchRoundSize Hist `json:"batch_round_size"`
	// BatchFallbacks counts chunks the collision kernel handed back to the
	// exact per-step/geometric path because a state count was within the
	// safety margin of the round size (or bulk sampling was unavailable).
	BatchFallbacks Counter `json:"batch_fallbacks"`
	// InteractionsPerSec is the throughput of the most recent collision
	// kernel StepN call, in scheduler decisions per wall-clock second.
	InteractionsPerSec Gauge `json:"interactions_per_sec"`
	// GraphSteps counts scheduling decisions taken by the topology-restricted
	// schedulers (a subset of Steps).
	GraphSteps Counter `json:"graph_steps"`
	// TopoInteractions counts topology-scheduler decisions per topology
	// kind; slots follow sched's kind order (clique, ring, grid, powerlaw,
	// edges).
	TopoInteractions Vec `json:"topo_interactions"`
	// Crashes / Revives / Joins count fault-injection events applied by the
	// topology schedulers (both rate-driven and explicitly scripted).
	Crashes Counter `json:"crashes"`
	Revives Counter `json:"revives"`
	Joins   Counter `json:"joins"`
	// StarvationGap records, at each edge selection, how many scheduling
	// decisions elapsed since that edge was last selected — the empirical
	// fairness profile of a schedule.
	StarvationGap Hist `json:"starvation_gap"`
	// FluidChunks / DiscreteChunks count StepN chunks that the hybrid
	// ladder scheduler routed to the fluid integrator vs the discrete
	// collision kernel.
	FluidChunks    Counter `json:"fluid_chunks"`
	DiscreteChunks Counter `json:"discrete_chunks"`
	// RegimeSwitches counts hybrid regime transitions (fluid↔discrete):
	// each time consecutive chunks were handled by different tiers.
	RegimeSwitches Counter `json:"regime_switches"`
	// FluidRKSteps / FluidRKRejects count accepted and error-rejected RK45
	// steps of the mean-field integrator.
	FluidRKSteps   Counter `json:"fluid_rk_steps"`
	FluidRKRejects Counter `json:"fluid_rk_rejects"`
}

// SimMetrics instruments internal/simulate's runner and measurement pool.
type SimMetrics struct {
	// RunsStarted / RunsFinished count simulation runs entering and
	// successfully leaving Run; the difference is in-flight or failed runs.
	RunsStarted  Counter `json:"runs_started"`
	RunsFinished Counter `json:"runs_finished"`
	// Convergence records each finished run's ConvergenceStep.
	Convergence Hist `json:"convergence"`
	// Quiescent counts runs that ended definitely stable (no enabled
	// transition) rather than via the heuristic window.
	Quiescent Counter `json:"quiescent"`
	// WorkerRuns / WorkerNanos record, per measurement worker, how many
	// runs it completed and how long it was busy; together they expose the
	// pool's utilisation balance. Slot 0 is the sequential path.
	WorkerRuns  Vec `json:"worker_runs"`
	WorkerNanos Vec `json:"worker_nanos"`
	// CheckpointsWritten counts atomic sweep-checkpoint files written by
	// the resumable sweep runner.
	CheckpointsWritten Counter `json:"checkpoints_written"`
	// SweepPointsResumed counts sweep points restored from a checkpoint
	// instead of being recomputed.
	SweepPointsResumed Counter `json:"sweep_points_resumed"`
}

// ServeMetrics instruments internal/serve's job queue and protocol cache.
type ServeMetrics struct {
	// JobsSubmitted / JobsCompleted / JobsFailed / JobsCancelled count job
	// lifecycle transitions; JobsRejected counts submissions bounced with
	// 429 because the queue was full.
	JobsSubmitted Counter `json:"jobs_submitted"`
	JobsCompleted Counter `json:"jobs_completed"`
	JobsFailed    Counter `json:"jobs_failed"`
	JobsCancelled Counter `json:"jobs_cancelled"`
	JobsRejected  Counter `json:"jobs_rejected"`
	// QueueDepth is the number of jobs waiting in the bounded queue at the
	// last enqueue/dequeue.
	QueueDepth Gauge `json:"queue_depth"`
	// CacheHits / CacheMisses count compiled-protocol cache lookups by
	// outcome; CacheEvictions counts LRU evictions.
	CacheHits      Counter `json:"cache_hits"`
	CacheMisses    Counter `json:"cache_misses"`
	CacheEvictions Counter `json:"cache_evictions"`
	// Conversions counts §7 compile→convert pipeline executions (cache
	// misses that actually paid for a conversion); ConvertNanos accumulates
	// the wall time they took. A warm cache keeps both flat.
	Conversions  Counter `json:"conversions"`
	ConvertNanos Counter `json:"convert_nanos"`
	// JobsResumed counts jobs re-enqueued by state-directory recovery after
	// a restart.
	JobsResumed Counter `json:"jobs_resumed"`
	// StreamClients counts per-job snapshot-stream connections served.
	StreamClients Counter `json:"stream_clients"`
}

// OptMetrics instruments the convert.Optimize shrink pipeline.
type OptMetrics struct {
	// Runs counts shrink-pipeline executions (full Optimize and the
	// counting-only OptimizeStates path alike).
	Runs Counter `json:"runs"`
	// InstrsRemoved / DomainValuesRemoved accumulate the machine-level
	// pass totals (instructions dropped, pointer-domain values narrowed
	// away) across runs.
	InstrsRemoved       Counter `json:"instrs_removed"`
	DomainValuesRemoved Counter `json:"domain_values_removed"`
	// StatesRemoved / TransitionsRemoved accumulate the protocol-level
	// totals: states outside the support closure, plus silent and
	// duplicate transitions compacted away. Counting-only runs contribute
	// the as-converted state delta and no transitions.
	StatesRemoved      Counter `json:"states_removed"`
	TransitionsRemoved Counter `json:"transitions_removed"`
	// Nanos accumulates wall time spent inside the pipeline.
	Nanos Counter `json:"nanos"`
}

// ExploreMetrics instruments internal/explore's engine and interner.
type ExploreMetrics struct {
	// Explorations counts ExploreContext invocations.
	Explorations Counter `json:"explorations"`
	// Levels counts BFS levels expanded by the engine.
	Levels Counter `json:"levels"`
	// Frontier records the frontier width of each expanded BFS level.
	Frontier Hist `json:"frontier"`
	// States counts distinct states interned across all explorations.
	States Counter `json:"states"`
	// Edges counts edges committed to the reachable graph.
	Edges Counter `json:"edges"`
	// Nanos accumulates wall time spent inside the engines; States/Nanos
	// is the live states-per-second rate surfaced in snapshots.
	Nanos Counter `json:"nanos"`
	// Cancellations counts explorations aborted by context cancellation.
	Cancellations Counter `json:"cancellations"`
	// InternArenaBytes is the total key bytes stored in interner arenas.
	InternArenaBytes Counter `json:"intern_arena_bytes"`
	// InternCollisions counts inserts whose 64-bit hash bucket was already
	// occupied by a different key (true hash collisions).
	InternCollisions Counter `json:"intern_collisions"`
	// InternShard counts interned entries per shard; imbalance here means
	// the hash is clumping keys onto few shards.
	InternShard Vec `json:"intern_shard"`
	// SpillSegments counts sealed key-log segments written to spill files
	// when an exploration runs under a memory budget.
	SpillSegments Counter `json:"spill_segments"`
	// SpillBytes is the total bytes of key-log segments written to spill
	// files, i.e. the out-of-core write volume.
	SpillBytes Counter `json:"spill_bytes"`
	// SpillReadBytes is the bytes read back from spill files (interner
	// confirms, BFS levels read from the log, the analysis scan);
	// SpillReadBytes divided by SpillBytes is the read-back amplification
	// of a run.
	SpillReadBytes Counter `json:"spill_read_bytes"`
	// SpillResidentPeak is the high-water mark of the key log's resident
	// bytes: its sealed segments still in RAM plus its tail. The
	// fixed-width interner table (~16 bytes per state) is the irreducible
	// resident floor and is excluded.
	SpillResidentPeak Gauge `json:"spill_resident_peak"`
}

// Metrics is one complete set of instruments. Subsystems obtain their group
// through the nil-safe accessors, so a nil *Metrics (telemetry disabled)
// propagates into nil groups whose instruments all no-op.
type Metrics struct {
	sched   SchedMetrics
	sim     SimMetrics
	explore ExploreMetrics
	serve   ServeMetrics
	opt     OptMetrics
}

// Sched returns the scheduler instrument group (nil when m is nil).
func (m *Metrics) Sched() *SchedMetrics {
	if m == nil {
		return nil
	}
	return &m.sched
}

// Sim returns the simulation instrument group (nil when m is nil).
func (m *Metrics) Sim() *SimMetrics {
	if m == nil {
		return nil
	}
	return &m.sim
}

// Explore returns the exploration instrument group (nil when m is nil).
func (m *Metrics) Explore() *ExploreMetrics {
	if m == nil {
		return nil
	}
	return &m.explore
}

// Serve returns the server instrument group (nil when m is nil).
func (m *Metrics) Serve() *ServeMetrics {
	if m == nil {
		return nil
	}
	return &m.serve
}

// Opt returns the shrink-pipeline instrument group (nil when m is nil).
func (m *Metrics) Opt() *OptMetrics {
	if m == nil {
		return nil
	}
	return &m.opt
}

// current is the process-wide metric set; nil means telemetry is disabled
// (the default).
var current atomic.Pointer[Metrics]

// Enable installs a fresh Metrics as the process-wide set and returns it.
// Instrument sites capture the set when they are constructed, so Enable
// before building schedulers/runners (the binaries enable it right after
// flag parsing).
func Enable() *Metrics {
	m := &Metrics{}
	current.Store(m)
	return m
}

// Disable removes the process-wide set; subsequent instrument captures see
// telemetry off. Already-captured groups keep working against the detached
// set, which stays valid but is no longer snapshotted.
func Disable() {
	current.Store(nil)
}

// Current returns the process-wide metric set, or nil when disabled.
func Current() *Metrics {
	return current.Load()
}

// Sched returns the current scheduler instrument group (nil when disabled).
func Sched() *SchedMetrics { return Current().Sched() }

// Sim returns the current simulation instrument group (nil when disabled).
func Sim() *SimMetrics { return Current().Sim() }

// Explore returns the current exploration instrument group (nil when
// disabled).
func Explore() *ExploreMetrics { return Current().Explore() }

// Serve returns the current server instrument group (nil when disabled).
func Serve() *ServeMetrics { return Current().Serve() }

// Opt returns the current shrink-pipeline instrument group (nil when
// disabled).
func Opt() *OptMetrics { return Current().Opt() }
