package experiments

import (
	"reflect"
	"testing"
)

// TestTopologyConvergenceGolden pins E16 cell-for-cell. The shape is the
// point, not the individual step counts: the epidemic converges on every
// connected topology, while majority and the ⟨elect⟩ phase of the x ≥ 1
// program (compiled by §7.2, converted by §7.3) converge on the clique
// only — on the sparse topologies the deciding agents separate behind
// follower regions and every run burns its budget. The schedulers are seed-deterministic per-step machines, so any
// drift here means scheduler sampling, fault bookkeeping or the §7.2–7.3
// pipeline changed behaviour, not just luck.
func TestTopologyConvergenceGolden(t *testing.T) {
	tbl, err := TopologyConvergence(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"epidemic", "clique", "2/2", "50", "0"},
		{"epidemic", "ring", "2/2", "150", "0"},
		{"epidemic", "grid", "2/2", "125", "0"},
		{"epidemic", "powerlaw", "2/2", "75", "0"},
		{"majority", "clique", "2/2", "250", "0"},
		{"majority", "ring", "0/2", "—", "0"},
		{"majority", "grid", "0/2", "—", "0"},
		{"majority", "powerlaw", "0/2", "—", "0"},
		{"threshold x ≥ 1 (§7.2–7.3)", "clique", "2/2", "2302", "—"},
		{"threshold x ≥ 1 (§7.2–7.3)", "ring", "0/2", "—", "—"},
		{"threshold x ≥ 1 (§7.2–7.3)", "grid", "0/2", "—", "—"},
		{"threshold x ≥ 1 (§7.2–7.3)", "powerlaw", "0/2", "—", "—"},
	}
	if !reflect.DeepEqual(tbl.Rows, want) {
		t.Fatalf("TopologyConvergence(16, 2, 1) rows drifted:\n got %v\nwant %v", tbl.Rows, want)
	}
}

// TestTopologyConvergenceNoStalledWrongOutputs guards the accounting: a
// stalled run must be counted out of the converged tally, never into the
// wrong-output column (the output while stalled is mixed, not wrong).
func TestTopologyConvergenceNoStalledWrongOutputs(t *testing.T) {
	tbl, err := TopologyConvergence(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if len(row) != 5 {
			t.Fatalf("row %v has %d cells, want 5", row, len(row))
		}
		if row[4] != "0" && row[4] != "—" {
			t.Errorf("%s/%s reported wrong outputs: %s", row[0], row[1], row[4])
		}
	}
}
