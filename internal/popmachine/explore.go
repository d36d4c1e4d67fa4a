package popmachine

import (
	"repro/internal/protocol"
)

// System adapts a population machine to the exact model checker
// (explore.System): states are machine configurations, the step relation is
// Definition 13, and the output of a configuration is its OF value. A
// configuration with no successor (hang) becomes a terminal bottom SCC,
// matching the paper's reflexive completion C → C.
type System struct {
	M *Machine
}

// Key implements explore.System.
func (s System) Key(c *Config) string { return c.Key() }

// AppendKey implements explore.System: the engine interns machine
// configurations through the compact binary encoding instead of
// materialising a string per visited state.
func (s System) AppendKey(dst []byte, c *Config) []byte { return c.AppendKey(dst) }

// DecodeKey implements explore.System: no configuration is kept in RAM,
// so every BFS level is decoded from the key log, which spills under a
// memory budget.
func (s System) DecodeKey(prev *Config, key []byte) (*Config, error) { return s.M.DecodeKey(prev, key) }

// AppendSuccessorKeys implements explore.System: successors are applied to
// c in place and encoded, never cloned.
func (s System) AppendSuccessorKeys(c *Config, dst []byte, ends []int) ([]byte, []int) {
	return s.M.AppendSuccessorKeys(c, dst, ends)
}

// Output implements explore.System.
func (s System) Output(c *Config) protocol.Output {
	if s.M.Output(c) {
		return protocol.OutputTrue
	}
	return protocol.OutputFalse
}
