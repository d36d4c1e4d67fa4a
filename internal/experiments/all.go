package experiments

import (
	"errors"
	"fmt"

	"repro/internal/explore"
	"repro/internal/simulate"
)

// Config selects experiment scope; the zero value runs the fast defaults
// used by `cmd/ppexperiments` without flags.
type Config struct {
	// Table1MaxN bounds Table 1's rows (default 6).
	Table1MaxN int
	// Figure1MaxTotal bounds Figure 1's decision sweep (default 8).
	Figure1MaxTotal int64
	// Figure1Exact enables the exhaustive machine check of E2 (default
	// true; it takes a few seconds).
	Figure1Exact bool
	// Theorem3MaxN / Theorem3SweepMaxN bound E6 (defaults 8 / 2).
	Theorem3MaxN      int
	Theorem3SweepMaxN int
	// Theorem5MaxN bounds E9 (default 6).
	Theorem5MaxN int
	// ConvergenceSizes / ConvergenceRuns configure E12
	// (defaults {16, 32, 64, 128} / 5).
	ConvergenceSizes []int64
	ConvergenceRuns  int
	// Convergence is the run options of E12's measurements: its kernel,
	// the kernel driver's chunk size and the worker pool (results are
	// bit-identical for any worker count; the zero value is sequential).
	// All rejects any other field set: E12 fixes its own step bound and
	// stabilisation rules and always pairs uniformly.
	Convergence simulate.Options
	// TopologyM is E16's population size (default 16).
	TopologyM int64
	// Explore is the exact model checker's options for the exhaustive
	// checks (E2's machine verification, E11's baseline verdicts, E17's
	// explorations): its worker count, memory budget and spill directory.
	// Results are bit-identical for any workers and budget. All rejects a
	// non-zero MaxStates: each check sets its own state limit.
	Explore explore.Options
	// Seed seeds the randomised experiments.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Table1MaxN == 0 {
		c.Table1MaxN = 6
	}
	if c.Figure1MaxTotal == 0 {
		c.Figure1MaxTotal = 8
		c.Figure1Exact = true
	}
	if c.Theorem3MaxN == 0 {
		c.Theorem3MaxN = 8
		c.Theorem3SweepMaxN = 3
	}
	if c.Theorem5MaxN == 0 {
		c.Theorem5MaxN = 6
	}
	if len(c.ConvergenceSizes) == 0 {
		c.ConvergenceSizes = []int64{16, 32, 64, 128}
	}
	if c.ConvergenceRuns == 0 {
		c.ConvergenceRuns = 5
	}
	if c.TopologyM == 0 {
		c.TopologyM = 16
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// All runs every experiment and returns the tables in report order. It
// checks the option structs before running anything.
func All(cfg Config) ([]*Table, error) {
	if _, err := convergenceOptions(cfg.Convergence); err != nil {
		return nil, fmt.Errorf("experiment convergence: %w", err)
	}
	if cfg.Explore.MaxStates != 0 {
		return nil, errors.New("experiments: Explore.MaxStates must be zero, each check sets its own state limit")
	}
	cfg = cfg.withDefaults()
	var tables []*Table
	steps := []struct {
		name string
		run  func() (*Table, error)
	}{
		{"table1", func() (*Table, error) { return Table1(cfg.Table1MaxN) }},
		{"table1-crossover", func() (*Table, error) { return Table1Crossover(18) }},
		{"figure1", func() (*Table, error) {
			return Figure1(cfg.Figure1MaxTotal, cfg.Figure1Exact, cfg.Explore)
		}},
		{"figure2", Figure2},
		{"theorem3", func() (*Table, error) { return Theorem3(cfg.Theorem3MaxN, cfg.Theorem3SweepMaxN) }},
		{"equality", func() (*Table, error) { return Equality(4) }},
		{"theorem5", func() (*Table, error) { return Theorem5(cfg.Theorem5MaxN) }},
		{"election", func() (*Table, error) {
			return Election([]int64{1, 4, 16, 48}, cfg.ConvergenceRuns, cfg.Seed)
		}},
		{"theorem2", func() (*Table, error) { return Theorem2(cfg.Explore) }},
		{"theorem2-churn", func() (*Table, error) { return Theorem2Churn(cfg.Seed) }},
		{"convergence", func() (*Table, error) {
			return Convergence(cfg.ConvergenceSizes, cfg.ConvergenceRuns, cfg.Seed, cfg.Convergence)
		}},
		{"topology", func() (*Table, error) {
			return TopologyConvergence(cfg.TopologyM, 2, cfg.Seed)
		}},
		{"profile", func() (*Table, error) {
			return ProcedureProfile(2, 10, 2_000_000, cfg.Seed)
		}},
		{"reduction", Reduction},
		{"inlining", func() (*Table, error) { return Inlining(8) }},
		{"shrink", func() (*Table, error) { return Shrink(4, 1) }},
		{"shrink-explore", func() (*Table, error) { return ShrinkExplore(cfg.Explore) }},
	}
	for _, s := range steps {
		tbl, err := s.run()
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.name, err)
		}
		tables = append(tables, tbl)
	}
	return tables, nil
}
