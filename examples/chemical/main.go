// Chemical: the robustness story of §8 in chemical-reaction-network terms.
// In a CRN, a state is a molecular species and an agent is a molecule;
// trace amounts of unwanted species are unavoidable. All prior threshold
// protocols are 1-aware — a single "accept" molecule flips their decision —
// while the paper's construction is almost self-stabilising: it tolerates
// arbitrary noise species (Theorem 2).
//
//	go run ./examples/chemical
package main

import (
	"fmt"
	"log"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/sched"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. The 1-aware failure: the unary "flock of birds" protocol for
	//    x ≥ 5, given 2 intended molecules plus ONE contaminant in the
	//    accepting species K, wrongly accepts — provably, over all fair
	//    runs.
	unary, err := baseline.UnaryThreshold(5)
	if err != nil {
		return err
	}
	noisy, err := baseline.NoisyConfig(unary, []int64{2}, map[string]int64{"K": 1})
	if err != nil {
		return err
	}
	res, err := explore.ExploreParallel(explore.NewProtocolSystem(unary),
		[]*multiset.Multiset{noisy}, explore.Options{})
	if err != nil {
		return err
	}
	fmt.Println("unary x ≥ 5 with 2 intended molecules + 1 noise molecule in K:")
	fmt.Printf("  every fair run stabilises to %v — the protocol is 1-aware and fooled\n",
		res.Consensus())

	// 2. The paper's construction under heavy contamination: the n = 2
	//    program (x ≥ 10) is run from configurations where every molecule
	//    starts in an arbitrary species (register). The detect-restart
	//    loop rejects bad configurations and the output converges to the
	//    truth about the *total* count.
	c, err := core.New(2)
	if err != nil {
		return err
	}
	fmt.Printf("\nthis paper's construction, x ≥ %s, molecules scattered adversarially:\n", c.K)
	rng := sched.NewRand(7)
	for _, m := range []int64{7, 10, 13} {
		cfg := multiset.New(c.NumRegisters())
		for u := int64(0); u < m; u++ {
			cfg.Add(rng.Intn(c.NumRegisters()), 1)
		}
		out, err := popprog.Decide(c.Program, cfg, popprog.DecideOptions{
			Seed: 100 + m, Budget: 5_000_000, TruthProb: 0.85, Attempts: 5,
			RestartHint: c.RestartHint(), HintProb: 0.3,
		})
		if err != nil {
			return fmt.Errorf("m=%d: %w", m, err)
		}
		fmt.Printf("  %2d molecules in random species → %-5v (expected %-5v; %d restarts)\n",
			m, out.Output, m >= 10, out.Restarts)
	}

	fmt.Println("\nthe construction accepts only provisionally and keeps re-checking its")
	fmt.Println("invariants (it is not 1-aware), which is exactly why the noise cannot fool it.")
	return nil
}
