package main

// metricDef declares one reported metric. The end-to-end table carries the
// regression bounds that BENCHMARK.json publishes and `ppbench compare`
// applies; TestBenchmarkJSONMatches keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the pipeline sees, reported by every
// workload from its untraced run. Bound is the share of the baseline median
// by which a metric may worsen before a change counts as a regression. On
// the shared reference box the run-to-run spread of every timing reached
// 10–30% while neighbours were busy (README.md), so timings get the widest
// bound the benchmark allows, setup_s included; memory is steadier.
// Failures are not among them: any failed op fails the run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20},
}

// perLayer are the metrics of single layers, reported from the traced run
// only. Every workload reports all of them; a layer it never reaches reads
// 0. A layer's time is given as its share of the summed op wall time, so a
// bypassed layer reads 0 as a share rather than as a duration. Counts and
// bytes are per timed op, so they compare across runs of different length.
var perLayer = []metricDef{
	{Name: "popprog.parse_share", Unit: "ratio", Better: "lower"},
	{Name: "compile.compile_share", Unit: "ratio", Better: "lower"},
	{Name: "convert.optimize_share", Unit: "ratio", Better: "lower"},
	{Name: "convert.convert_share", Unit: "ratio", Better: "lower"},
	{Name: "convert.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "convert.transitions_out", Unit: "count", Better: "lower"},
	{Name: "convert.transitions_per_s", Unit: "1/s", Better: "higher"},
	{Name: "explore.explore_share", Unit: "ratio", Better: "lower"},
	{Name: "explore.states", Unit: "count", Better: "lower"},
	{Name: "explore.edges", Unit: "count", Better: "lower"},
	{Name: "explore.levels", Unit: "count", Better: "lower"},
	{Name: "explore.states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "explore.alloc_kb_per_state", Unit: "KB", Better: "lower"},
	{Name: "sched.represented_interactions", Unit: "count", Better: "lower"},
	{Name: "sched.effective_interactions", Unit: "count", Better: "lower"},
	{Name: "sched.effective_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.batch_fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sched.represented_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sched.effective_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fluid.chunk_share", Unit: "ratio", Better: "higher"},
	{Name: "fluid.rk_steps", Unit: "count", Better: "lower"},
	{Name: "fluid.rk_reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fluid.regime_switches", Unit: "count", Better: "lower"},
	{Name: "simulate.measure_share", Unit: "ratio", Better: "lower"},
	{Name: "simulate.runs", Unit: "count", Better: "lower"},
	{Name: "simulate.worker_util", Unit: "ratio", Better: "higher"},
	{Name: "serve.queue_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.run_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.client_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.conversions", Unit: "count", Better: "lower"},
	{Name: "serve.convert_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.rejected", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}
