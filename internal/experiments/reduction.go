package experiments

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/core"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// Reduction regenerates E14 (beyond the paper): how tight is the
// Proposition 16 conversion? The support-closure reduction removes every
// state no run can ever occupy (unreachable stage/value/opinion
// combinations); the surviving fraction measures how much of the 2·|Q*|
// bound is real. Full conversion is required, so only small machines are
// tabulated.
func Reduction() (*Table, error) {
	t := &Table{
		ID:    "E14 (conversion tightness)",
		Title: "support-closure reduction of converted protocols",
		Columns: []string{
			"machine", "states", "reduced", "kept %", "transitions", "reduced",
		},
		Notes: []string{
			"reduction preserves behaviour exactly (removed states are unoccupiable);",
			"the reduced ge1 protocol is re-verified exhaustively in internal/convert's tests",
		},
	}
	targets := []struct {
		name string
		prog *popprog.Program
	}{
		{"ge1 (x ≥ 1)", ge1Program()},
		{"figure1 (4 ≤ x < 7)", popprog.Figure1Program()},
		{"czerner n=1 (x ≥ 2)", nil}, // filled below
	}
	c1, err := core.New(1)
	if err != nil {
		return nil, err
	}
	targets[2].prog = c1.Program

	for _, target := range targets {
		machine, err := compile.Compile(target.prog)
		if err != nil {
			return nil, err
		}
		conv, err := convert.Convert(machine)
		if err != nil {
			return nil, err
		}
		reduced, _, err := protocol.Reduce(conv.Protocol)
		if err != nil {
			return nil, err
		}
		kept := float64(reduced.NumStates()) / float64(conv.Protocol.NumStates()) * 100
		t.AddRow(target.name,
			conv.Protocol.NumStates(), reduced.NumStates(),
			fmt.Sprintf("%.0f%%", kept),
			len(conv.Protocol.Transitions), len(reduced.Transitions))
	}
	return t, nil
}
