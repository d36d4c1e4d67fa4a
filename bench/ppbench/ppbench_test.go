package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// descending n, n-1, …, 1 so the helper has to sort
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 0.9, want: 90, ok: true}, // 10 samples beyond rank 90
		{n: 99, p: 0.9, ok: false},           // rank 90 has only 9 beyond
		{n: 1000, p: 0.99, want: 990, ok: true},
		{n: 20, p: 0.5, want: 10, ok: true},
		{n: 19, p: 0.5, ok: false},
		{n: 0, p: 0.5, ok: false},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("percentile(n=%d, p=%g): err = %v, want ok = %v", tc.n, tc.p, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("percentile(n=%d, p=%g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 1}, 0, 6},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Layer: "op", Start: 0, End: 100},
		// Two children overlapping on [30, 40].
		{ID: 1, Parent: 0, Name: "explore.A", Layer: "explore", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "explore.B", Layer: "explore", Start: 30, End: 60},
		// A grandchild nested in span 1.
		{ID: 3, Parent: 1, Name: "compile.C", Layer: "compile", Start: 15, End: 25},
		// A child running past its parent's end counts only inside it.
		{ID: 4, Parent: 0, Name: "convert.D", Layer: "convert", Start: 90, End: 120},
	}
	want := []int64{
		100 - (50 + 10), // union of [10, 60] and [90, 100]
		30 - 10,
		30,
		10,
		30,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	sum := summarise(spans)
	if sum.Ops != 1 || sum.Coverage != 0.6 {
		t.Errorf("summary: %d ops, coverage %g; want 1 op, coverage 0.6", sum.Ops, sum.Coverage)
	}
	if got := sum.Layers["explore"]; got.Calls != 2 || math.Abs(got.SelfMs-50e-6) > 1e-15 {
		t.Errorf("explore layer: %+v, want 2 calls and 50 ns self", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	// around returns ten values spread ±w around m, in an order that
	// differs from sorted so pairing by position matters.
	around := func(m, w float64) []float64 {
		offs := []float64{0.2, -0.6, 1, -1, 0.6, -0.2, 0.4, -0.8, 0.8, -0.4}
		xs := make([]float64, len(offs))
		for i, o := range offs {
			xs[i] = m * (1 + w*o)
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same runs", around(100, 0.02), around(100, 0.02), lower, verdictNoWorse},
		{"worse within the bound", around(100, 0.02), around(105, 0.02), lower, verdictNoWorse},
		{"worse past the bound", around(100, 0.02), around(120, 0.02), lower, verdictRegressed},
		{"faster in every pair", around(100, 0.02), around(80, 0.02), lower, verdictImproved},
		{"throughput lost", around(100, 0.02), around(80, 0.02), higher, verdictRegressed},
		{"throughput gained", around(100, 0.02), around(120, 0.02), higher, verdictImproved},
		{"spread wider than the bound", around(100, 0.3), around(112, 0.3), lower, verdictUnresolved},
		{"wide spread, every run better", around(100, 0.3), around(40, 0.3), lower, verdictImproved},
		{"wide spread, every run worse", around(100, 0.3), around(300, 0.3), lower, verdictRegressed},
		// Better in most pairs, but the medians differ by less than A's
		// quartile spread: not a gain.
		{"gain within the noise", around(100, 0.05), around(98, 0.05), lower, verdictNoWorse},
	} {
		if got := compareMetric(tc.a, tc.b, tc.d).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, which describes the
// benchmark to the tools that run it, in step with the workloads and
// metrics defined here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, code has {%s %s}", i, got, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
}

// TestSmoke runs every workload at tiny sizes, traced, so a broken harness
// or a changed golden value fails `go test`.
func TestSmoke(t *testing.T) {
	cfg := config{seed: 1, smoke: true, outDir: t.TempDir()}
	for _, w := range workloads {
		start := time.Now()
		res, err := runOne(w, cfg, true, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2*minOps {
			t.Errorf("%s: %+v", w.name, res)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		t.Logf("%s: %d ops in %v", w.name, res.Attempted, time.Since(start))
	}
}
