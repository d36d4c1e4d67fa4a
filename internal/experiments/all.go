package experiments

import (
	"fmt"

	"repro/internal/explore"
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
	// ConvergenceBatch is the chunk size of E12's kernel driver (0 means
	// 65,536; simulate.Options.BatchSize).
	ConvergenceBatch int64
	// ConvergenceWorkers > 1 measures E12's runs on a worker pool. Results
	// are bit-identical for any worker count; the default is sequential.
	ConvergenceWorkers int
	// ConvergenceKernel selects E12's interaction kernel (one of the
	// simulate.Kernel* names; empty means simulate.KernelExact).
	ConvergenceKernel string
	// TopologyM / TopologyRuns configure E16's population size and runs per
	// (protocol, topology) cell (defaults 16 / 2).
	TopologyM    int64
	TopologyRuns int
	// ShrinkMaxN / ShrinkFullN bound E17: the largest construction level to
	// shrink-and-count, and the largest level to fully materialise for
	// before/after transition counts (defaults 4 / 1).
	ShrinkMaxN  int
	ShrinkFullN int
	// ExploreWorkers is the frontier-expansion worker count handed to the
	// parallel exact model checker for the exhaustive checks (E2's machine
	// verification, E11's baseline verdicts). Zero means one worker per
	// available CPU; results are bit-identical for any value.
	ExploreWorkers int
	// ExploreMemBudget caps the resident bytes of the exact model checker's
	// variable-size structures (interner key log + frontier); beyond it the
	// explorer spills to ExploreSpillDir. Zero keeps everything in RAM.
	// Results are bit-identical for any budget.
	ExploreMemBudget int64
	// ExploreSpillDir is the directory for the explorer's spill files when
	// ExploreMemBudget forces out-of-core operation (empty = os.TempDir()).
	ExploreSpillDir string
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
	if c.TopologyRuns == 0 {
		c.TopologyRuns = 2
	}
	if c.ShrinkMaxN == 0 {
		c.ShrinkMaxN = 4
		c.ShrinkFullN = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// All runs every experiment and returns the tables in report order.
func All(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	exOpts := explore.Options{
		Workers:   cfg.ExploreWorkers,
		MemBudget: cfg.ExploreMemBudget,
		SpillDir:  cfg.ExploreSpillDir,
	}
	var tables []*Table
	steps := []struct {
		name string
		run  func() (*Table, error)
	}{
		{"table1", func() (*Table, error) { return Table1(cfg.Table1MaxN) }},
		{"table1-crossover", func() (*Table, error) { return Table1Crossover(18) }},
		{"figure1", func() (*Table, error) {
			return Figure1(cfg.Figure1MaxTotal, cfg.Figure1Exact, exOpts)
		}},
		{"figure2", Figure2},
		{"theorem3", func() (*Table, error) { return Theorem3(cfg.Theorem3MaxN, cfg.Theorem3SweepMaxN) }},
		{"equality", func() (*Table, error) { return Equality(4) }},
		{"theorem5", func() (*Table, error) { return Theorem5(cfg.Theorem5MaxN) }},
		{"election", func() (*Table, error) {
			return Election([]int64{1, 4, 16, 48}, cfg.ConvergenceRuns, cfg.Seed)
		}},
		{"theorem2", func() (*Table, error) { return Theorem2(exOpts) }},
		{"theorem2-churn", func() (*Table, error) { return Theorem2Churn(cfg.Seed) }},
		{"convergence", func() (*Table, error) {
			return Convergence(cfg.ConvergenceSizes, cfg.ConvergenceRuns, cfg.Seed,
				cfg.ConvergenceBatch, cfg.ConvergenceWorkers, cfg.ConvergenceKernel)
		}},
		{"topology", func() (*Table, error) {
			return TopologyConvergence(cfg.TopologyM, cfg.TopologyRuns, cfg.Seed)
		}},
		{"profile", func() (*Table, error) {
			return ProcedureProfile(2, 10, 2_000_000, cfg.Seed)
		}},
		{"reduction", Reduction},
		{"inlining", func() (*Table, error) { return Inlining(8) }},
		{"shrink", func() (*Table, error) { return Shrink(cfg.ShrinkMaxN, cfg.ShrinkFullN) }},
		{"shrink-explore", func() (*Table, error) { return ShrinkExplore(exOpts) }},
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
