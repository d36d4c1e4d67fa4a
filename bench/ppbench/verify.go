package main

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
)

var verifyWorkload = workload{
	name:        "verify",
	why:         "exact verdicts from source: parse, compile and explore every placement; the explorer dominates, the simulator is bypassed",
	clients:     1,
	passSeconds: 1.6,
	setup:       setupVerify,
}

// machineCheck model-checks a program compiled from source: every placement
// of every total 1..maxTotal must stabilise to the predicate. states is the
// golden sum of reachable states over those explorations.
type machineCheck struct {
	target   string
	maxTotal int64
	states   int
}

// protocolCheck runs explore.CheckDecidesParallel over sizes 1..maxAgents.
type protocolCheck struct {
	target    string
	maxAgents int64
}

// convertedCheck explores one configuration of a protocol converted from a
// program during set-up. Leaderless configurations hold |F| pointer agents
// plus extra input agents; leader-model ones are π(C) with x = extra.
type convertedCheck struct {
	target string
	leader bool
	extra  int64
	want   bool
	states int
	// perPass is how many times a pass runs the check (at least once).
	perPass int
}

type verifySizes struct {
	machines  []machineCheck
	protocols []protocolCheck
	converted []convertedCheck
}

var verifyFull = verifySizes{
	machines: []machineCheck{
		{"figure1", 9, 86_239},
		{"czerner:1", 3, 88_098},
		{"equality:1", 3, 88_578},
	},
	protocols: []protocolCheck{
		{"majority", 12}, {"unary:4", 12}, {"binary:2", 12}, {"remainder:3", 12},
		{"ge3-and-even", 6},
	},
	converted: []convertedCheck{
		// Twice per pass: the two costliest ops then hold ranks 82–100%
		// of every pass, so p90 falls inside their block rather than on
		// the edge between two kinds of different cost.
		{target: "figure1", extra: 1, want: false, states: 15_960, perPass: 2},
		{target: "czerner:1", leader: true, extra: 1, want: false, states: 1_853},
	},
}

var verifySmoke = verifySizes{
	machines:  []machineCheck{{"figure1", 3, 2_348}},
	protocols: []protocolCheck{{"majority", 5}, {"ge3-and-even", 4}},
	converted: []convertedCheck{{target: "figure1", extra: 0, want: false, states: 1_124}},
}

// exploreWorkers is 1: the parallel explorer synchronises its workers at
// every BFS level, so on a shared two-CPU box a stall of either CPU stalls
// both, and two workers made run-to-run spreads about three times wider.
// The explorer's own goroutines still share the box with the collector.
const exploreWorkers = 1

func setupVerify(cfg config) (instance, error) {
	sizes := verifyFull
	if cfg.smoke {
		sizes = verifySmoke
	}
	inst := &fixedOps{seed: cfg.seed}
	for _, mc := range sizes.machines {
		prog, pred, err := programTarget(mc.target)
		if err != nil {
			return nil, err
		}
		inst.ops = append(inst.ops, machineOp(mc, prog.WriteSource(), pred))
	}
	for _, pc := range sizes.protocols {
		p, pred, err := protocolTarget(pc.target)
		if err != nil {
			return nil, err
		}
		pc := pc
		inst.ops = append(inst.ops, op{
			kind: fmt.Sprintf("decide:%s:1..%d", pc.target, pc.maxAgents),
			run: func(c *opCtx) error {
				return c.call("explore.CheckDecidesParallel", func() error {
					return explore.CheckDecidesParallel(p, pred, 1, pc.maxAgents, exploreWorkers, explore.Options{})
				})
			},
		})
	}
	for _, cc := range sizes.converted {
		o, err := convertedOp(cc)
		if err != nil {
			return nil, err
		}
		for i := 0; i < max(1, cc.perPass); i++ {
			inst.ops = append(inst.ops, o)
		}
	}
	return inst, nil
}

func machineOp(mc machineCheck, src string, pred func(int64) bool) op {
	return op{
		kind: fmt.Sprintf("machine:%s:1..%d", mc.target, mc.maxTotal),
		run: func(c *opCtx) error {
			var prog *popprog.Program
			if err := c.call("popprog.Parse", func() (err error) {
				prog, err = popprog.Parse(src)
				return err
			}); err != nil {
				return err
			}
			var m *popmachine.Machine
			if err := c.call("compile.Compile", func() (err error) {
				m, err = compile.Compile(prog)
				return err
			}); err != nil {
				return err
			}
			sys := popmachine.System{M: m}
			states := 0
			for total := int64(1); total <= mc.maxTotal; total++ {
				var initial []*popmachine.Config
				if err := c.call("popmachine.InitialConfig", func() (err error) {
					multiset.Enumerate(len(m.Registers), total, func(regs *multiset.Multiset) {
						cfg, e := m.InitialConfig(regs)
						if e != nil && err == nil {
							err = e
						}
						initial = append(initial, cfg)
					})
					return err
				}); err != nil {
					return err
				}
				var res *explore.Result
				if err := c.call("explore.ExploreParallel", func() (err error) {
					res, err = explore.ExploreParallel[*popmachine.Config](sys, initial,
						explore.Options{Workers: exploreWorkers, MaxStates: 8_000_000})
					return err
				}); err != nil {
					return fmt.Errorf("total %d: %w", total, err)
				}
				if want := pred(total); !res.StabilisesTo(want) {
					return fmt.Errorf("total %d: outcomes %v, want all %v", total, res.Outcomes, want)
				}
				states += res.NumStates
			}
			if states != mc.states {
				return fmt.Errorf("explored %d states, golden %d", states, mc.states)
			}
			return nil
		},
	}
}

// convertedOp converts the program once (set-up) with the shrink pipeline;
// the op explores the converted protocol.
func convertedOp(cc convertedCheck) (op, error) {
	prog, _, err := programTarget(cc.target)
	if err != nil {
		return op{}, err
	}
	m, err := compile.Compile(prog)
	if err != nil {
		return op{}, err
	}
	res, _, err := convert.Optimize(m)
	if err != nil {
		return op{}, err
	}
	model := "leaderless"
	cfg, err := res.Protocol.InitialConfig(int64(res.NumPointers) + cc.extra)
	if cc.leader {
		model = "leader"
		cfg, err = res.LeaderConfig(cc.extra, 0)
	}
	if err != nil {
		return op{}, err
	}
	sys := explore.NewProtocolSystem(res.Protocol)
	return op{
		kind: fmt.Sprintf("converted:%s:%s:m=%d", cc.target, model, cfg.Size()),
		run: func(c *opCtx) error {
			var r *explore.Result
			if err := c.call("explore.ExploreParallel", func() (err error) {
				r, err = explore.ExploreParallel(sys, []*multiset.Multiset{cfg.Clone()},
					explore.Options{Workers: exploreWorkers})
				return err
			}); err != nil {
				return err
			}
			if !r.StabilisesTo(cc.want) {
				return fmt.Errorf("outcomes %v, want all %v", r.Outcomes, cc.want)
			}
			if r.NumStates != cc.states {
				return fmt.Errorf("explored %d states, golden %d", r.NumStates, cc.states)
			}
			return nil
		},
	}, nil
}
