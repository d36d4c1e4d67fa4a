package explore

import (
	"context"
	"fmt"

	"repro/internal/multiset"
	"repro/internal/par"
	"repro/internal/protocol"
)

// ProtocolSystem adapts a population protocol's configuration graph to the
// System interface: states are configurations (multisets over Q), the step
// relation is single-transition firing, and outputs are consensus outputs.
// Build it with NewProtocolSystem: successor queries go through a
// pair-indexed stepper (O(support²) rather than O(|δ|) per state).
type ProtocolSystem struct {
	P       *protocol.Protocol
	stepper *protocol.Stepper
}

var _ System[*multiset.Multiset] = ProtocolSystem{}

// NewProtocolSystem builds an indexed adapter for p.
func NewProtocolSystem(p *protocol.Protocol) ProtocolSystem {
	return ProtocolSystem{P: p, stepper: protocol.NewStepper(p)}
}

// Key implements System: the dense key, which witness keys report.
func (s ProtocolSystem) Key(c *multiset.Multiset) string { return c.Key() }

// AppendKey implements System with the run-length key, whose length grows
// with the configuration's support rather than with |Q|.
func (s ProtocolSystem) AppendKey(dst []byte, c *multiset.Multiset) []byte {
	return c.AppendRunKey(dst)
}

// DecodeKey implements System: configurations are rebuilt from their
// run-length keys. prev is reused as the decode target when non-nil.
func (s ProtocolSystem) DecodeKey(prev *multiset.Multiset, key []byte) (*multiset.Multiset, error) {
	if prev == nil {
		prev = s.P.NewConfig()
	}
	if err := prev.SetFromRunKey(key); err != nil {
		return nil, err
	}
	return prev, nil
}

// AppendSuccessorKeys implements System through the stepper, firing each
// transition on c in place.
func (s ProtocolSystem) AppendSuccessorKeys(c *multiset.Multiset, dst []byte, ends []int) ([]byte, []int) {
	return s.stepper.AppendSuccessorKeys(c, dst, ends)
}

// Output implements System.
func (s ProtocolSystem) Output(c *multiset.Multiset) protocol.Output {
	return s.P.OutputOf(c)
}

// checkDecidesSize verifies pred for every initial configuration of one
// population size, using the engine (which expands inline on the caller's
// goroutine for the narrow frontiers of small instances).
func checkDecidesSize(ctx context.Context, sys ProtocolSystem, pred protocol.Predicate, m int64, opts Options) error {
	p := sys.P
	var checkErr error
	multiset.Enumerate(len(p.Input), m, func(inputCounts *multiset.Multiset) {
		if checkErr != nil {
			return
		}
		c, err := p.InitialConfig(inputCounts.Counts()...)
		if err != nil {
			checkErr = err
			return
		}
		want := pred(p.InputCounts(c))
		res, err := ExploreContext[*multiset.Multiset](ctx, sys, []*multiset.Multiset{c}, opts)
		if err != nil {
			checkErr = fmt.Errorf("size %d: %w", m, err)
			return
		}
		if !res.StabilisesTo(want) {
			checkErr = fmt.Errorf(
				"size %d: protocol %q from %s: fair runs do not all stabilise to %v (outcomes %v)",
				m, p.Name, c.Format(p.States), want, res.Outcomes)
		}
	})
	return checkErr
}

// CheckDecidesParallel verifies that p decides pred on every initial
// configuration of every population size in [minAgents, maxAgents]: the
// exact counterpart of the paper's "PP decides φ" (§3) restricted to a
// finite range of sizes. Each size is one par.Ordered task on `workers`
// goroutines (workers = 1 checks the sizes in order on the caller's
// goroutine). The protocol's stepper is shared read-only; each task
// explores its own size. The smallest failing size wins at every worker
// count: no larger size starts after it fails, the in-flight explorations
// of larger sizes are cancelled (they abort at their next level barrier),
// and all of them are awaited before returning.
//
// Each per-configuration exploration runs with one engine worker unless
// opts.Workers says otherwise — the size-level fan-out already saturates the
// CPUs, and the instances here are small; use ExploreContext directly with
// Workers > 1 for a single large instance.
func CheckDecidesParallel(p *protocol.Protocol, pred protocol.Predicate, minAgents, maxAgents int64, workers int, opts Options) error {
	if minAgents < 1 {
		return fmt.Errorf("explore: population size must be ≥ 1, got %d", minAgents)
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	sys := NewProtocolSystem(p)
	_, err := par.Ordered(context.TODO(), int(maxAgents-minAgents+1), workers, func(ctx context.Context, _, i int) error {
		return checkDecidesSize(ctx, sys, pred, minAgents+int64(i), opts)
	})
	return err
}
