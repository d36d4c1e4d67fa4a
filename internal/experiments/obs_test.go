package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/explore"
	"repro/internal/obs"
	"repro/internal/simulate"
)

// renderAll runs the full experiment suite with cfg and returns every table
// rendered into one byte stream, exactly as ppexperiments prints it.
func renderAll(t *testing.T, cfg Config) []byte {
	t.Helper()
	tables, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, tbl := range tables {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestAllDifferentialObs is the telemetry read-only guarantee at the
// experiment level: the rendered output of the whole suite must be
// byte-identical with telemetry off, on, and off again. Any instrumentation
// that leaks into control flow — an extra RNG draw, a reordered reduction,
// a write to the wrong stream — shows up here as a byte diff.
func TestAllDifferentialObs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a trimmed experiment sweep three times")
	}
	cfg := Config{
		Table1MaxN:        4,
		Figure1MaxTotal:   5,
		Figure1Exact:      true,
		Theorem3MaxN:      4,
		Theorem3SweepMaxN: 1,
		Theorem5MaxN:      4,
		ConvergenceSizes:  []int64{8, 16},
		ConvergenceRuns:   2,
		Seed:              3,
		Convergence:       simulate.Options{BatchSize: 32, Workers: 2},
		Explore:           explore.Options{Workers: 2},
	}

	off1 := renderAll(t, cfg)

	m := obs.Enable()
	on := renderAll(t, cfg)
	obs.Disable()

	off2 := renderAll(t, cfg)

	if !bytes.Equal(off1, on) {
		t.Fatalf("output differs with telemetry on:\n--- off ---\n%s--- on ---\n%s", off1, on)
	}
	if !bytes.Equal(off1, off2) {
		t.Fatalf("output not reproducible across telemetry toggling:\n--- first ---\n%s--- second ---\n%s", off1, off2)
	}
	// The instrumented run must actually have observed the suite.
	if m.Sched().Steps.Load() == 0 || m.Sim().RunsFinished.Load() == 0 || m.Explore().States.Load() == 0 {
		t.Fatalf("telemetry-on run recorded no activity: steps %d, runs finished %d, states %d",
			m.Sched().Steps.Load(), m.Sim().RunsFinished.Load(), m.Explore().States.Load())
	}
}

// TestTable1CrossoverGolden pins E1b around the crossover: at n = 16 the
// O(log log k) construction of this paper (43 282 states) first beats the
// binary-counter baseline (57 698 states), exactly as claimed in the
// reproduction's Table 1 extension. The closed-form bit counts double each
// level, so any drift in the constructions or the converter moves these
// cells.
func TestTable1CrossoverGolden(t *testing.T) {
	tbl, err := Table1Crossover(17)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"15", "19259", "28913", "40512", "binary"},
		{"16", "38516", "57698", "43282", "this paper  ← crossover"},
		{"17", "77031", "115502", "46052", "this paper"},
	}
	if len(tbl.Rows) != 17 {
		t.Fatalf("Table1Crossover(17) has %d rows, want 17", len(tbl.Rows))
	}
	if got := tbl.Rows[14:17]; !reflect.DeepEqual(got, want) {
		t.Fatalf("crossover rows drifted:\n got %v\nwant %v", got, want)
	}
}
