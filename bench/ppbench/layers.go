package main

import (
	"repro/internal/obs"
)

// measured is one metric value and the number of samples behind it.
type measured struct {
	value float64
	n     int
}

const mib = 1 << 20

// endToEndValues computes the end-to-end metrics from the untraced run:
// latency percentiles over all ops, the other per-op quantities as the
// median over passes.
func endToEndValues(o *outcome) (map[string]measured, error) {
	ph := o.base
	ops := len(ph.lat)
	p50, err := percentile(ph.lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(ph.lat, 0.9)
	if err != nil {
		return nil, err
	}
	return map[string]measured{
		"setup_s":   {median(o.setups), len(o.setups)},
		"ops_per_s": ph.perPass(opsPerSec),
		"op_p50_ms": {p50, ops},
		"op_p90_ms": {p90, ops},
		"cpu_ms_per_op": ph.perPass(func(s passStat) float64 {
			return msOf(s.cpu) / float64(s.ops)
		}),
		"alloc_mb_per_op": ph.perPass(func(s passStat) float64 {
			return float64(s.alloc) / mib / float64(s.ops)
		}),
		"peak_rss_mb": ph.perPass(func(s passStat) float64 { return float64(s.peakRSS) / 1024 }),
	}, nil
}

// perLayerValues computes the per-layer metrics from the traced run: span
// self times and allocations measured around the benchmark's calls into
// each layer, plus the counts only the program itself sees, read from the
// internal/obs groups that were enabled for the traced run.
func perLayerValues(o *outcome) (map[string]measured, *spanSummary) {
	ph := o.traced
	ops := len(ph.lat)
	n := float64(ops)
	sum := summarise(o.tr.spans)
	sched, sim, ex, sv := o.met.Sched(), o.met.Sim(), o.met.Explore(), o.met.Serve()

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// share is a time as a share of the summed op wall time.
	opWallNs := float64(sum.opsWall)
	share := func(ns float64) float64 { return ratio(ns, opWallNs) }
	selfNs := func(names ...string) float64 {
		var ns int64
		for _, name := range names {
			ns += sum.selfNs[name]
		}
		return float64(ns)
	}
	allocs := func(names ...string) float64 {
		var b uint64
		for _, name := range names {
			b += sum.allocs[name]
		}
		return float64(b)
	}
	total := func(name string) float64 {
		var t float64
		for _, v := range o.tr.samples[name] {
			t += v
		}
		return t
	}
	var workerNs float64
	for w := 0; w < obs.VecWidth; w++ {
		workerNs += float64(sim.WorkerNanos.Load(w))
	}
	var gcCycles, gcPauseNs, wallNs float64
	for _, s := range ph.passes {
		gcCycles += float64(s.gcCycles)
		gcPauseNs += float64(s.gcPause)
		wallNs += float64(s.wall.Nanoseconds())
	}

	transitions := total("convert.transitions_out")
	states, exploreNs := float64(ex.States.Load()), float64(ex.Nanos.Load())
	steps, effective := float64(sched.Steps.Load()), float64(sched.Effective.Load())
	rounds, fallbacks := float64(sched.BatchRounds.Load()), float64(sched.BatchFallbacks.Load())
	fluidChunks, discreteChunks := float64(sched.FluidChunks.Load()), float64(sched.DiscreteChunks.Load())
	rkSteps, rkRejects := float64(sched.FluidRKSteps.Load()), float64(sched.FluidRKRejects.Load())
	measureWallNs := float64(sum.wallNs["simulate.MeasureConvergenceWithSamples"])
	hits, misses := float64(sv.CacheHits.Load()), float64(sv.CacheMisses.Load())

	v := map[string]measured{
		"popprog.parse_share":            {share(selfNs("popprog.Parse")), ops},
		"compile.compile_share":          {share(selfNs("compile.Compile")), ops},
		"convert.optimize_share":         {share(selfNs("convert.Optimize", "convert.OptimizeStates")), ops},
		"convert.convert_share":          {share(selfNs("convert.Convert", "convert.CountStates")), ops},
		"convert.alloc_mb":               {allocs("convert.Optimize", "convert.OptimizeStates", "convert.Convert", "convert.CountStates") / mib / n, ops},
		"convert.transitions_out":        {transitions / n, ops},
		"convert.transitions_per_s":      {ratio(transitions, selfNs("convert.Optimize", "convert.Convert")/1e9), ops},
		"explore.explore_share":          {share(exploreNs), ops},
		"explore.states":                 {states / n, ops},
		"explore.edges":                  {float64(ex.Edges.Load()) / n, ops},
		"explore.levels":                 {float64(ex.Levels.Load()) / n, ops},
		"explore.states_per_s":           {ratio(states, exploreNs/1e9), ops},
		"explore.alloc_kb_per_state":     {ratio(allocs("explore.ExploreParallel", "explore.CheckDecidesParallel")/1024, states), ops},
		"sched.represented_interactions": {steps / n, ops},
		"sched.effective_interactions":   {effective / n, ops},
		"sched.effective_ratio":          {ratio(effective, steps), ops},
		"sched.batch_fallback_ratio":     {ratio(fallbacks, rounds+fallbacks), ops},
		"sched.represented_per_s":        {ratio(steps, workerNs/1e9), ops},
		"sched.effective_per_s":          {ratio(effective, workerNs/1e9), ops},
		"fluid.chunk_share":              {ratio(fluidChunks, fluidChunks+discreteChunks), ops},
		"fluid.rk_steps":                 {rkSteps / n, ops},
		"fluid.rk_reject_ratio":          {ratio(rkRejects, rkSteps+rkRejects), ops},
		"fluid.regime_switches":          {float64(sched.RegimeSwitches.Load()) / n, ops},
		"simulate.measure_share":         {share(selfNs("simulate.MeasureConvergenceWithSamples")), ops},
		"simulate.runs":                  {float64(sim.RunsFinished.Load()) / n, ops},
		"simulate.worker_util":           {ratio(workerNs, measureWallNs*simWorkers), ops},
		"serve.queue_wait_share":         {share(total("serve.queue_wait_ms") * 1e6), ops},
		"serve.run_share":                {share(total("serve.run_ms") * 1e6), ops},
		"serve.client_overhead_share":    {share(total("serve.client_overhead_ms") * 1e6), ops},
		"serve.cache_hit_ratio":          {ratio(hits, hits+misses), ops},
		"serve.conversions":              {float64(sv.Conversions.Load()) / n, ops},
		"serve.convert_share":            {share(float64(sv.ConvertNanos.Load())), ops},
		"serve.rejected":                 {float64(sv.JobsRejected.Load()) / n, ops},
		"runtime.gc_cycles":              {gcCycles / n, ops},
		"runtime.gc_pause_share":         {ratio(gcPauseNs, wallNs), ops},
		"trace.coverage":                 {sum.Coverage, sum.Ops},
		"trace_overhead_ratio":           {o.base.perPass(opsPerSec).value / ph.perPass(opsPerSec).value, len(ph.passes)},
	}
	return v, sum
}
