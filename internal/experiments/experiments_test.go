package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/simulate"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID:      "T",
		Title:   "demo",
		Columns: []string{"a", "bb"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow("longer", 22)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== T: demo ==", "a", "bb", "longer", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Columns: []string{"a"}}
	tbl.AddRow("v")
	var sb strings.Builder
	if err := tbl.Markdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "| a |") || !strings.Contains(out, "| v |") {
		t.Fatalf("markdown wrong:\n%s", out)
	}
}

func TestTable1Shape(t *testing.T) {
	tbl, err := Table1(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tbl.Rows))
	}
	// The headline shape: unary grows like k, binary like log k, ours like
	// log log k. Check the counts at n = 5 (k = 918070): unary ≫ binary ≫
	// ours is the wrong direction — ours is larger than binary for small n
	// because of the conversion constants; what must hold is the *growth*:
	// between n = 2 and n = 5, unary multiplies by ~10⁵, binary roughly
	// quadruples, ours stays within a small constant factor.
	parse := func(s string) float64 {
		s = strings.TrimSuffix(s, "*")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("unparseable count %q", s)
		}
		return v
	}
	unary2, unary5 := parse(tbl.Rows[1][3]), parse(tbl.Rows[4][3])
	binary2, binary5 := parse(tbl.Rows[1][4]), parse(tbl.Rows[4][4])
	ours2, ours5 := parse(tbl.Rows[1][5]), parse(tbl.Rows[4][5])
	if unary5/unary2 < 1000 {
		t.Fatalf("unary growth too small: %v → %v", unary2, unary5)
	}
	if g := binary5 / binary2; g < 2 || g > 20 {
		t.Fatalf("binary growth out of shape: %v → %v", binary2, binary5)
	}
	if g := ours5 / ours2; g > 4 {
		t.Fatalf("our construction grows too fast: %v → %v", ours2, ours5)
	}
	// And the crossover: by n = 5 this paper's protocol is already well
	// below the unary protocol, and by n = 6 the gap is astronomical.
	if ours5*10 > unary5 {
		t.Fatalf("no crossover vs unary at n=5: ours %v, unary %v", ours5, unary5)
	}
	unary6, ours6 := parse(tbl.Rows[5][3]), parse(tbl.Rows[5][5])
	if ours6*1e6 > unary6 {
		t.Fatalf("crossover not widening at n=6: ours %v, unary %v", ours6, unary6)
	}
}

func TestFigure1DecisionsNoExact(t *testing.T) {
	tbl, err := Figure1(8, false, explore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[1] != row[2] {
			t.Fatalf("m=%s: interpreter decided %s, want %s", row[0], row[2], row[1])
		}
	}
}

func TestFigure2RowsMatchPaper(t *testing.T) {
	tbl, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	wantClass := map[string]string{
		"i-proper":        "proper",
		"weakly i-proper": "weakly-proper",
		"i-low":           "low",
		"i-high":          "high",
		"i-empty":         "empty",
	}
	for _, row := range tbl.Rows {
		want := wantClass[row[0]]
		if !strings.Contains(row[5], want) {
			t.Fatalf("row %q classified %s, want to include %q", row[0], row[5], want)
		}
	}
}

func TestTheorem3TableFastPath(t *testing.T) {
	tbl, err := Theorem3(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] != "verified" {
			t.Fatalf("n=%s: double-exponential bound not verified", row[0])
		}
		if strings.Contains(row[4], "≠!") {
			t.Fatalf("n=%s: wrong decision in sweep: %s", row[0], row[4])
		}
	}
}

func TestTheorem5Accounting(t *testing.T) {
	tbl, err := Theorem5(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		states, _ := strconv.Atoi(row[4])
		ceiling, _ := strconv.Atoi(row[5])
		if states > ceiling {
			t.Fatalf("n=%s: %d states exceed the Prop 16 ceiling %d", row[0], states, ceiling)
		}
	}
}

func TestTheorem2RobustnessVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow randomised experiment")
	}
	tbl, err := Theorem2(explore.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	fooled, robustRows := 0, 0
	for _, row := range tbl.Rows {
		switch {
		case strings.HasPrefix(row[0], "this paper"):
			if row[6] != "yes" {
				t.Fatalf("the construction was fooled: %v", row)
			}
			robustRows++
		default:
			if row[6] == "yes" {
				t.Fatalf("a 1-aware baseline was unexpectedly robust: %v", row)
			}
			fooled++
		}
	}
	if fooled != 2 || robustRows != 3 {
		t.Fatalf("unexpected row counts: fooled=%d robust=%d", fooled, robustRows)
	}
}

func TestConvergenceSmall(t *testing.T) {
	tbl, err := Convergence([]int64{8, 16}, 2, 3, simulate.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[4] != "0" {
			t.Fatalf("wrong outputs in convergence run: %v", row)
		}
	}
	// The batched fast path with a worker pool must still decide every run
	// correctly.
	fast, err := Convergence([]int64{8, 16}, 2, 3, simulate.Options{BatchSize: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Rows) != 4 {
		t.Fatalf("%d batched rows, want 4", len(fast.Rows))
	}
	for _, row := range fast.Rows {
		if row[4] != "0" {
			t.Fatalf("wrong outputs in batched convergence run: %v", row)
		}
	}
	// Kernel selection: each named kernel must decide every run correctly
	// too (tiny populations drive auto/batch into the exact fallback, so
	// this covers the handoff plumbing rather than the bulk math).
	for _, kernel := range []string{simulate.KernelExact, simulate.KernelBatch, simulate.KernelAuto} {
		kt, err := Convergence([]int64{8, 16}, 2, 3, simulate.Options{Workers: 1, Kernel: kernel})
		if err != nil {
			t.Fatalf("kernel %q: %v", kernel, err)
		}
		if len(kt.Rows) != 4 {
			t.Fatalf("kernel %q: %d rows, want 4", kernel, len(kt.Rows))
		}
		for _, row := range kt.Rows {
			if row[4] != "0" {
				t.Fatalf("kernel %q: wrong outputs in convergence run: %v", kernel, row)
			}
		}
	}
	if _, err := Convergence([]int64{8}, 1, 3, simulate.Options{Workers: 1, Kernel: "bogus"}); err == nil {
		t.Fatal("bogus kernel name accepted")
	}
}

// TestConfigRejectsUnreadOptions pins that the option structs in Config
// carry no option beyond the kernel, chunk size and worker pool of E12 and
// the workers, budget and spill directory of the model checks: every other
// field is rejected before any experiment runs.
func TestConfigRejectsUnreadOptions(t *testing.T) {
	for name, cfg := range map[string]Config{
		"MaxSteps":         {Convergence: simulate.Options{MaxSteps: 10}},
		"StableWindow":     {Convergence: simulate.Options{StableWindow: 10}},
		"QuiescencePeriod": {Convergence: simulate.Options{QuiescencePeriod: 10}},
		"Topology":         {Convergence: simulate.Options{Topology: &sched.TopologySpec{Kind: "ring"}}},
		"MaxStates":        {Explore: explore.Options{MaxStates: 10}},
	} {
		if _, err := All(cfg); err == nil {
			t.Errorf("All accepted a Config setting %s", name)
		}
	}
	if _, err := Convergence([]int64{8}, 1, 3, simulate.Options{MaxSteps: 10}); err == nil {
		t.Fatal("Convergence accepted a MaxSteps")
	}
}

func TestAllFastConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var sb strings.Builder
	cfg := Config{
		Table1MaxN:        4,
		Figure1MaxTotal:   5,
		Figure1Exact:      false,
		Theorem3MaxN:      4,
		Theorem3SweepMaxN: 1,
		Theorem5MaxN:      3,
		ConvergenceSizes:  []int64{8},
		ConvergenceRuns:   2,
		Seed:              7,
	}
	tables, err := All(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range tables {
		if err := tbl.Render(&sb); err != nil {
			t.Fatal(err)
		}
	}
	out := sb.String()
	for _, want := range []string{"E1 (Table 1)", "E2 (Figure 1)", "E3 (Figure 2)",
		"E6 (Theorem 3)", "E9 (Theorem 5", "E11 (Theorem 2)", "E11b (Theorem 2, churn)", "E12"} {
		if !strings.Contains(out, want) {
			t.Fatalf("All output missing %q", want)
		}
	}
}
