package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestNilReceiversNoop pins the disabled-telemetry contract: every
// instrument method must be callable on a nil receiver without panicking or
// observing anything.
func TestNilReceiversNoop(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Fatal("nil Counter loaded non-zero")
	}
	var g *Gauge
	g.Set(3)
	g.Max(9)
	if g.Load() != 0 {
		t.Fatal("nil Gauge loaded non-zero")
	}
	var h *Hist
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil Hist observed")
	}
	var v *Vec
	v.Add(3, 1)
	if v.Load(3) != 0 {
		t.Fatal("nil Vec loaded non-zero")
	}
	var m *Metrics
	if m.Sched() != nil || m.Sim() != nil || m.Explore() != nil {
		t.Fatal("nil Metrics returned a non-nil group")
	}
	// With telemetry disabled the group accessors return nil, which is the
	// branch every instrumentation site guards on.
	Disable()
	if Sched() != nil || Sim() != nil || Explore() != nil {
		t.Fatal("disabled accessors returned non-nil groups")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil || buf.String() != "null\n" {
		t.Fatalf("disabled WriteJSON = %q, %v; want null", buf.String(), err)
	}
}

func TestGaugeMax(t *testing.T) {
	var g Gauge
	g.Max(5)
	g.Max(3)
	if got := g.Load(); got != 5 {
		t.Fatalf("Gauge.Max kept %d, want 5", got)
	}
	g.Set(1)
	if got := g.Load(); got != 1 {
		t.Fatalf("Gauge.Set kept %d, want 1", got)
	}
}

func TestHistSnapshotExact(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 1024, -7} { // -7 clamps to 0
		h.Observe(v)
	}
	s := histJSON(t, &h)
	if s.Count != 6 || s.Sum != 1030 || s.Min != 0 || s.Max != 1024 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Buckets: 0 → bucket 0 (twice), 1 → 1, 2..3 → 2 (two values), 1024 → 11.
	want := []int64{2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if len(s.Log2Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Log2Buckets, want)
	}
	for i, w := range want {
		if s.Log2Buckets[i] != w {
			t.Fatalf("buckets = %v, want %v", s.Log2Buckets, want)
		}
	}
	if s.Mean == 0 {
		t.Fatal("mean not derived")
	}
	var empty Hist
	if es := histJSON(t, &empty); es.Count != 0 || es.Min != 0 || es.Log2Buckets != nil {
		t.Fatalf("empty snapshot = %+v", es)
	}
}

func TestVecWraps(t *testing.T) {
	var v Vec
	v.Add(1, 2)
	v.Add(1+VecWidth, 3) // wraps onto slot 1
	if got := v.Load(1); got != 5 {
		t.Fatalf("slot 1 = %d, want 5", got)
	}
	if b, err := json.Marshal(&v); err != nil || string(b) != "[0,5]" {
		t.Fatalf("MarshalJSON = %s, %v; want [0,5]", b, err)
	}
	var empty Vec
	if b, err := json.Marshal(&empty); err != nil || string(b) != "null" {
		t.Fatalf("empty MarshalJSON = %s, %v; want null", b, err)
	}
}

// TestEnableSnapshotRoundTrip drives a few instruments through the enabled
// global set and checks the JSON snapshot carries them through unmarshalling
// — the same well-formedness the binaries' -metrics output relies on.
func TestEnableSnapshotRoundTrip(t *testing.T) {
	m := Enable()
	defer Disable()
	m.Sched().Steps.Add(42)
	m.Sched().GeomSkips.Observe(17)
	m.Sim().WorkerNanos.Add(2, 1000)
	m.Explore().InternShard.Add(63, 4)
	m.Explore().States.Add(10)
	m.Explore().Nanos.Add(2_000_000_000)

	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("WriteJSON did not emit exactly one line: %q", line)
	}
	var s struct {
		Sched struct {
			Steps     int64    `json:"steps"`
			GeomSkips histView `json:"geom_skips"`
		} `json:"sched"`
		Sim struct {
			WorkerNanos []int64 `json:"worker_nanos"`
		} `json:"sim"`
		Explore struct {
			InternShard  []int64 `json:"intern_shard"`
			StatesPerSec float64 `json:"states_per_sec"`
		} `json:"explore"`
	}
	if err := json.Unmarshal([]byte(line), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, line)
	}
	if s.Sched.Steps != 42 || s.Sched.GeomSkips.Count != 1 || s.Sched.GeomSkips.Max != 17 {
		t.Fatalf("sched snap = %+v", s.Sched)
	}
	if len(s.Sim.WorkerNanos) != 3 || s.Sim.WorkerNanos[2] != 1000 {
		t.Fatalf("sim snap = %+v", s.Sim)
	}
	if len(s.Explore.InternShard) != 64 || s.Explore.InternShard[63] != 4 {
		t.Fatalf("explore shard snap = %v", s.Explore.InternShard)
	}
	if s.Explore.StatesPerSec != 5 {
		t.Fatalf("states/sec = %v, want 5", s.Explore.StatesPerSec)
	}
}

func TestStartEmitterEmitsValidJSONLines(t *testing.T) {
	Enable()
	defer Disable()
	var buf syncBuffer
	stop := StartEmitter(&buf, time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	stop()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("emitter produced %d lines, want ≥ 2 (immediate + ticks)", len(lines))
	}
	for i, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("line %d is not valid JSON:\n%s", i, l)
		}
	}
}

// histView is the JSON shape a Hist marshals to.
type histView struct {
	Count       int64   `json:"count"`
	Sum         int64   `json:"sum"`
	Min         int64   `json:"min"`
	Max         int64   `json:"max"`
	Mean        float64 `json:"mean"`
	Log2Buckets []int64 `json:"log2_buckets"`
}

// histJSON marshals h and decodes it back into a histView.
func histJSON(t *testing.T, h *Hist) histView {
	t.Helper()
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var v histView
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("Hist JSON %s: %v", b, err)
	}
	return v
}

// touchAll sets field i of each group to i+1: counters add it, gauges set
// it, histograms observe it and vectors add it to slot i.
func touchAll(t *testing.T, m *Metrics) {
	t.Helper()
	for _, g := range []any{m.Sched(), m.Sim(), m.Explore(), m.Serve(), m.Opt()} {
		v := reflect.ValueOf(g).Elem()
		for i := 0; i < v.NumField(); i++ {
			x := int64(i + 1)
			switch f := v.Field(i).Addr().Interface().(type) {
			case *Counter:
				f.Add(x)
			case *Gauge:
				f.Set(x)
			case *Hist:
				f.Observe(x)
			case *Vec:
				f.Add(i, x)
			default:
				t.Fatalf("%s.%s: unknown instrument %T", v.Type(), v.Type().Field(i).Name, f)
			}
		}
	}
}

// flatten appends one key=value line per leaf of the decoded JSON v, keys
// joined by dots; arrays are leaves.
func flatten(prefix string, v any, out *[]string) {
	if o, ok := v.(map[string]any); ok {
		for k, x := range o {
			flatten(prefix+k+".", x, out)
		}
		return
	}
	b, _ := json.Marshal(v)
	*out = append(*out, strings.TrimSuffix(prefix, ".")+"="+string(b))
}

// metricsKeyGolden is the fully touched set (touchAll) flattened: every
// instrument's name and value as -metrics, expvar and the job stream write
// them.
var metricsKeyGolden = []string{
	"explore.cancellations=7",
	"explore.edges=5",
	"explore.explorations=1",
	"explore.frontier.count=1",
	"explore.frontier.log2_buckets=[0,0,1]",
	"explore.frontier.max=3",
	"explore.frontier.mean=3",
	"explore.frontier.min=3",
	"explore.frontier.sum=3",
	"explore.intern_arena_bytes=8",
	"explore.intern_collisions=9",
	"explore.intern_shard=[0,0,0,0,0,0,0,0,0,10]",
	"explore.levels=2",
	"explore.nanos=6",
	"explore.spill_bytes=12",
	"explore.spill_read_bytes=13",
	"explore.spill_resident_peak=14",
	"explore.spill_segments=11",
	"explore.states=4",
	"explore.states_per_sec=666666666.6666666",
	"opt.domain_values_removed=3",
	"opt.instrs_removed=2",
	"opt.nanos=6",
	"opt.runs=1",
	"opt.states_removed=4",
	"opt.transitions_removed=5",
	"sched.batch_fallbacks=8",
	"sched.batch_round_size.count=1",
	"sched.batch_round_size.log2_buckets=[0,0,0,1]",
	"sched.batch_round_size.max=7",
	"sched.batch_round_size.mean=7",
	"sched.batch_round_size.min=7",
	"sched.batch_round_size.sum=7",
	"sched.batch_rounds=6",
	"sched.crashes=12",
	"sched.discrete_chunks=17",
	"sched.effective=2",
	"sched.fenwick_rebuilds=5",
	"sched.fluid_chunks=16",
	"sched.fluid_rk_rejects=20",
	"sched.fluid_rk_steps=19",
	"sched.geom_skips.count=1",
	"sched.geom_skips.log2_buckets=[0,0,0,1]",
	"sched.geom_skips.max=4",
	"sched.geom_skips.mean=4",
	"sched.geom_skips.min=4",
	"sched.geom_skips.sum=4",
	"sched.graph_steps=10",
	"sched.interactions_per_sec=9",
	"sched.joins=14",
	"sched.nulls_skipped=3",
	"sched.regime_switches=18",
	"sched.revives=13",
	"sched.starvation_gap.count=1",
	"sched.starvation_gap.log2_buckets=[0,0,0,0,1]",
	"sched.starvation_gap.max=15",
	"sched.starvation_gap.mean=15",
	"sched.starvation_gap.min=15",
	"sched.starvation_gap.sum=15",
	"sched.steps=1",
	"sched.topo_interactions=[0,0,0,0,0,0,0,0,0,0,11]",
	"serve.cache_evictions=9",
	"serve.cache_hits=7",
	"serve.cache_misses=8",
	"serve.conversions=10",
	"serve.convert_nanos=11",
	"serve.jobs_cancelled=4",
	"serve.jobs_completed=2",
	"serve.jobs_failed=3",
	"serve.jobs_rejected=5",
	"serve.jobs_resumed=12",
	"serve.jobs_submitted=1",
	"serve.queue_depth=6",
	"serve.stream_clients=13",
	"sim.checkpoints_written=7",
	"sim.convergence.count=1",
	"sim.convergence.log2_buckets=[0,0,1]",
	"sim.convergence.max=3",
	"sim.convergence.mean=3",
	"sim.convergence.min=3",
	"sim.convergence.sum=3",
	"sim.quiescent=4",
	"sim.runs_finished=2",
	"sim.runs_started=1",
	"sim.sweep_points_resumed=8",
	"sim.worker_nanos=[0,0,0,0,0,6]",
	"sim.worker_runs=[0,0,0,0,5]",
}

// TestMetricsJSONKeyGolden pins the name and value of every instrument: a
// fully touched set marshals to exactly the golden key=value lines. It fails
// if an instrument is dropped, renamed or mis-tagged, or if a group is
// marshalled by value, where its instruments' pointer marshalers are not
// called.
func TestMetricsJSONKeyGolden(t *testing.T) {
	var m Metrics
	touchAll(t, &m)
	b, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	var got []string
	flatten("", v, &got)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(metricsKeyGolden, "\n") {
		t.Fatalf("flattened set:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(metricsKeyGolden, "\n"))
	}
}

// TestMetricsJSONOmitsEmptyGroups pins that a group is written once any of
// its instruments observed something, even the value 0, and that written
// groups keep the order sched, sim, explore, serve, opt.
func TestMetricsJSONOmitsEmptyGroups(t *testing.T) {
	var m Metrics
	for _, c := range []struct {
		touch  func()
		groups []string
	}{
		{func() {}, nil},
		{func() { m.Opt().Runs.Inc() }, []string{"opt"}},
		{func() { m.Sched().GeomSkips.Observe(0) }, []string{"sched", "opt"}},
		{func() { m.Explore().InternShard.Add(3, 1) }, []string{"sched", "explore", "opt"}},
	} {
		c.touch()
		b, err := json.Marshal(&m)
		if err != nil {
			t.Fatal(err)
		}
		var groups []string
		dec := json.NewDecoder(bytes.NewReader(b))
		if _, err := dec.Token(); err != nil {
			t.Fatalf("%s: %v", b, err)
		}
		for dec.More() {
			name, err := dec.Token()
			if err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			var group json.RawMessage
			if err := dec.Decode(&group); err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			groups = append(groups, name.(string))
		}
		if !slices.Equal(groups, c.groups) {
			t.Fatalf("groups written %v, want %v: %s", groups, c.groups, b)
		}
	}
}
