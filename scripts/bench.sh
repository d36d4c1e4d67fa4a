#!/usr/bin/env bash
# bench.sh — run the simulation benchmark suite and emit BENCH_simulate.json.
#
# Covers the scheduler-level StepN benchmarks (exact vs collision kernel),
# the end-to-end RunKernels convergence benchmark, the root
# BatchStepN / MeasureConvergence benchmarks, the ODE-tier benchmarks
# (FluidStepN: one mean-field RK chunk; LadderConvergence: the auto
# ladder end-to-end at m = 10⁹/10¹²),
# the E17 shrink benchmarks (whose removal metrics come from the `opt` obs
# group, so pipeline regressions land in the record) and the pipeline's
# transition dedup and machine check (CompactTransitions, MachineValidate),
# the plain §7.3
# conversion of Figure 1 (ConvertPipeline: time and allocations per
# conversion), the out-of-core
# explorer benchmark (ExploreSpill: all-RAM vs spilled at a matched state
# count — states/sec and resident bytes per state), the converted-protocol
# explorer benchmark (ExploreConverted: states/sec, bytes and allocations per
# state), the population-machine explorer benchmark (ExploreMachine: compiled
# Figure 1 over every placement of 7 agents, bytes and allocations per state
# on the engine), the sampler construction benchmark (SamplerBuild: the pair index
# and the exact, batch and auto samplers on shrunk figure1 and czerner:1)
# and what a ppserved cache miss pays to persist shrunk figure1
# (SkeletonWrite: fingerprint plus skeleton encoding, no file I/O;
# Fingerprint alone).
# Each JSON record carries the
# benchmark name, iteration count and every (value, unit) metric pair Go
# reported — ns/op, ns/interaction, interactions/s, B/op, allocs/op, ...
#
# Usage:
#   scripts/bench.sh [output.json]          # default BENCH_simulate.json
#   BENCHTIME=2s scripts/bench.sh           # longer runs, steadier numbers
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_simulate.json}"
benchtime="${BENCHTIME:-1s}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'StepN|MeasureConvergence|RunKernels|Ladder|Shrink|ConvertPipeline|CompactTransitions|MachineValidate|ExploreSpill|ExploreConverted|ExploreMachine|SamplerBuild|SkeletonWrite|Fingerprint' \
  -benchmem -benchtime "$benchtime" \
  ./internal/sched ./internal/simulate ./internal/fluid ./internal/explore ./internal/serve . | tee "$raw"

awk -v go_version="$(go version)" -v date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
/^Benchmark/ {
    name = $1
    iters = $2
    m = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        if (m != "") m = m ","
        m = m sprintf("\"%s\":%s", $(i + 1), $i)
    }
    recs[n++] = sprintf("{\"name\":\"%s\",\"iterations\":%s,\"metrics\":{%s}}", name, iters, m)
}
END {
    printf "{\n"
    printf "  \"go\": \"%s\",\n", go_version
    printf "  \"date\": \"%s\",\n", date_utc
    printf "  \"benchtime\": \"'"$benchtime"'\",\n"
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++)
        printf "    %s%s\n", recs[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' "$raw" > "$out"

echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
