package main

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/popmachine"
	"repro/internal/popprog"
)

var buildWorkload = workload{
	name:        "build",
	why:         "source to protocol: parse, compile and one convert entry point; the explorer and the simulator are bypassed",
	clients:     1,
	passSeconds: 1.7,
	setup:       setupBuild,
}

// Convert entry points a build op can end in.
const (
	entryOptimize       = "optimize"        // convert.Optimize: golden |T|
	entryConvert        = "convert"         // convert.Convert: golden |T|
	entryOptimizeStates = "optimize-states" // convert.OptimizeStates: golden final |Q|
	entryCountStates    = "count-states"    // convert.CountStates: golden |Q|
)

// buildCheck is one source→protocol build and its golden size.
type buildCheck struct {
	entry  string
	target string
	golden int
}

var buildFull = []buildCheck{
	{entryOptimize, "figure1", 135_940},
	{entryOptimize, "czerner:1", 92_648},
	{entryOptimize, "equality:1", 99_692},
	{entryConvert, "figure1", 645_364},
	{entryConvert, "czerner:1", 2_367_216},
	{entryOptimizeStates, "czerner:3", 5_834},
	{entryOptimizeStates, "czerner:4", 8_118},
	{entryOptimizeStates, "czerner:5", 10_402},
	{entryOptimizeStates, "czerner:6", 12_686},
	{entryOptimizeStates, "equality:2", 3_576},
	{entryOptimizeStates, "equality:3", 5_860},
	{entryOptimizeStates, "equality:4", 8_144},
	{entryOptimizeStates, "equality:5", 10_428},
	{entryCountStates, "czerner:1", 1_804},
	{entryCountStates, "czerner:2", 4_502},
	{entryCountStates, "czerner:3", 7_272},
	{entryCountStates, "czerner:4", 10_042},
	{entryCountStates, "czerner:5", 12_812},
	{entryCountStates, "czerner:6", 15_582},
}

var buildSmoke = []buildCheck{
	{entryOptimizeStates, "czerner:1", 990},
	{entryCountStates, "czerner:1", 1_804},
	{entryCountStates, "czerner:2", 4_502},
}

func setupBuild(cfg config) (instance, error) {
	checks := buildFull
	if cfg.smoke {
		checks = buildSmoke
	}
	inst := &fixedOps{seed: cfg.seed}
	for _, bc := range checks {
		prog, _, err := programTarget(bc.target)
		if err != nil {
			return nil, err
		}
		inst.ops = append(inst.ops, buildOp(bc, prog.WriteSource()))
	}
	return inst, nil
}

func buildOp(bc buildCheck, src string) op {
	return op{
		kind: bc.entry + ":" + bc.target,
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
			var got int
			var err error
			switch bc.entry {
			case entryOptimize:
				err = c.call("convert.Optimize", func() error {
					res, _, err := convert.Optimize(m)
					if err == nil {
						got = len(res.Protocol.Transitions)
					}
					return err
				})
				c.count("convert.transitions_out", float64(got))
			case entryConvert:
				err = c.call("convert.Convert", func() error {
					res, err := convert.Convert(m)
					if err == nil {
						got = len(res.Protocol.Transitions)
					}
					return err
				})
				c.count("convert.transitions_out", float64(got))
			case entryOptimizeStates:
				err = c.call("convert.OptimizeStates", func() error {
					_, rep, err := convert.OptimizeStates(m)
					if err == nil {
						got = rep.After.States
					}
					return err
				})
			case entryCountStates:
				err = c.call("convert.CountStates", func() (err error) {
					_, got, err = convert.CountStates(m)
					return err
				})
			default:
				return fmt.Errorf("unknown convert entry point %q", bc.entry)
			}
			if err != nil {
				return err
			}
			if got != bc.golden {
				return fmt.Errorf("%s of %s gave %d, golden %d", bc.entry, bc.target, got, bc.golden)
			}
			return nil
		},
	}
}
