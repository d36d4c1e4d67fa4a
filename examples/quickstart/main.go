// Quickstart: build the classic 4-state majority protocol (the paper's
// introductory example, §1), run it under the uniform random-pair
// scheduler, and verify it exactly for all small populations.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/explore"
	"repro/internal/sched"
	"repro/internal/simulate"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Build the protocol: agents start as strong supporters X or Y and
	//    decide whether x ≥ y by stable consensus.
	p, err := baseline.Majority()
	if err != nil {
		return err
	}
	fmt.Printf("protocol %q: %d states, %d transitions\n",
		p.Name, p.NumStates(), len(p.Transitions))

	// 2. Simulate a single run: 60 X-agents vs 40 Y-agents.
	c, err := p.InitialConfig(60, 40)
	if err != nil {
		return err
	}
	var opts simulate.Options
	s, err := simulate.NewScheduler(p, sched.NewRand(42), opts, c.Size())
	if err != nil {
		return err
	}
	res, err := simulate.Run(p, c, s, opts)
	if err != nil {
		return err
	}
	fmt.Printf("60 vs 40 → output %v after %d interactions (parallel time %.1f)\n",
		res.Output, res.Steps, res.ParallelTime())

	// 3. Verify exactly: for every initial configuration with at most 6
	//    agents, every fair run stabilises to the correct answer. This is
	//    the bottom-SCC characterisation of stable computation (§3).
	if err := explore.CheckDecidesParallel(p, baseline.MajorityPredicate, 1, 6, 1, explore.Options{}); err != nil {
		return fmt.Errorf("exact verification: %w", err)
	}
	fmt.Println("exact verification passed for all inputs with ≤ 6 agents")
	return nil
}
