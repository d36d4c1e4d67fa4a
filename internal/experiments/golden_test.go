package experiments

import (
	"reflect"
	"testing"

	"repro/internal/explore"
)

// The golden tests pin the deterministic experiment outputs cell-for-cell.
// Table 1's measured state counts and E2's exhaustive verdicts (including
// the exact number of machine states explored per total) are functions of
// the constructions alone — any drift here means a construction, the
// compiler, the converter or the exploration engine changed behaviour, not
// just formatting. Update the expectations only with an explanation of
// which construction legitimately changed.

func TestTable1Golden(t *testing.T) {
	tbl, err := Table1(6)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"1", "2", "5", "3", "4", "1804"},
		{"2", "10", "7", "11", "7", "4502"},
		{"3", "60", "9", "61", "11", "7272"},
		{"4", "1412", "14", "1413", "16", "10042"},
		{"5", "918070", "23", "918071*", "29", "12812"},
		{"6", "420133695870", "42", "420133695871*", "63", "15582"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Fatalf("Table1(6) rows drifted:\n got %v\nwant %v", tbl.Rows, want)
	}
}

// TestFigure1ExactGolden pins E2's exhaustive machine checks: the verdict
// and the exact total of machine states explored across all placements for
// each m. It runs at two worker counts to pin the engine's determinism
// guarantee at the experiment level, not just in the explorer's own tests.
func TestFigure1ExactGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive check")
	}
	want := [][]string{
		{"1", "false", "false", "verified (530 states explored)"},
		{"2", "false", "false", "verified (2724 states explored)"},
		{"3", "false", "false", "verified (9156 states explored)"},
		{"4", "true", "true", "verified (29441 states explored)"},
		{"5", "true", "true", "verified (101181 states explored)"},
		{"6", "true", "true", "verified (209052 states explored)"},
	}
	// The third configuration forces out-of-core operation (a 4 KiB budget
	// spills both the interner key log and the frontier): the golden rows —
	// including the exact state counts — must not move.
	for _, opts := range []explore.Options{
		{Workers: 1},
		{Workers: 3},
		{Workers: 3, MemBudget: 4 << 10, SpillDir: t.TempDir()},
	} {
		tbl, err := Figure1(6, true, opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(tbl.Rows, want) {
			t.Fatalf("Figure1(6, exact) rows drifted at opts=%+v:\n got %v\nwant %v",
				opts, tbl.Rows, want)
		}
	}
}

// TestShrinkExploreGolden pins E17b cell-for-cell: the exact reachable
// configuration counts of the plain-converter and shrink-pipeline protocols
// for the E2 and E10 artefacts. The counts are a function of the
// constructions and the §7 conversion alone; the second configuration runs
// the same explorations out of core (2 KiB budget) and must not move a cell.
func TestShrinkExploreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive check")
	}
	want := [][]string{
		{"figure1 (4 <= x < 7)", "leaderless, 1 input", "12", "904->492", "16301->15960", "verified"},
		{"czerner n=1 (x >= 2)", "leader model, x = 1", "24", "1804->514", "1897->1853", "verified"},
	}
	for _, opts := range []explore.Options{
		{Workers: 2},
		{Workers: 2, MemBudget: 2 << 10, SpillDir: t.TempDir()},
	} {
		tbl, err := ShrinkExplore(opts)
		if err != nil {
			t.Fatalf("opts=%+v: %v", opts, err)
		}
		if !reflect.DeepEqual(tbl.Rows, want) {
			t.Fatalf("ShrinkExplore rows drifted at opts=%+v:\n got %v\nwant %v",
				opts, tbl.Rows, want)
		}
	}
}

// TestTheorem2ChurnGolden pins E11b cell for cell. The fault layer draws
// from the same seeded stream as the scheduler, so every cell — including
// the number of agents the join churn injects and the step count of the
// ⟨elect⟩ phase under crash/revive — is a deterministic function of the
// seed. Drift here means the fault-injection layer, a scheduler or a
// construction changed behaviour.
func TestTheorem2ChurnGolden(t *testing.T) {
	tbl, err := Theorem2Churn(1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"unary x ≥ 5 [4]", "7 agents", "crash 0.2% / revive 0.4%", "true", "7", "yes"},
		{"unary x ≥ 5 [4]", "4 agents", "joins in K (0.05%)", "true", "85", "NO (fooled)"},
		{"unary x ≥ 5 [4]", "4 agents", "joins in v1 (0.05%)", "true", "97", "yes"},
		{"threshold x ≥ 1 (§7.2–7.3, ⟨elect⟩)", "15 agents", "crash 0.1% / revive 1%", "elected (3158 steps)", "15", "yes"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Fatalf("Theorem2Churn(1) rows drifted:\n got %v\nwant %v", tbl.Rows, want)
	}
}
