package sched

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
)

// FuzzStepN throws random protocols, configurations and batch sizes at the
// batched scheduler and checks the structural invariants that must hold on
// every path: no panic, population-size conservation, agreement of the
// per-step batch mode with single Step calls, and reachability only of
// legal states (states seeded initially or produced by some transition).
func FuzzStepN(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 1, 1, 1, 1, 0, 0, 0}, []byte{3, 2}, uint8(16))
	f.Add(int64(7), uint8(2), []byte{0, 0, 1, 1}, []byte{1, 1}, uint8(64))
	f.Add(int64(42), uint8(6), []byte{0, 1, 2, 3, 3, 2, 1, 0, 5, 5, 4, 4}, []byte{9, 0, 0, 1, 2}, uint8(255))
	f.Add(int64(-3), uint8(0), []byte{}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, ns uint8, transBytes, countBytes []byte, batch uint8) {
		numStates := 2 + int(ns%5) // 2..6 states
		states := make([]string, numStates)
		input := make([]int, numStates)
		accepting := make([]bool, numStates)
		for i := range states {
			states[i] = fmt.Sprintf("s%d", i)
			input[i] = i
			accepting[i] = i%2 == 0
		}
		var ts []protocol.Transition
		for i := 0; i+3 < len(transBytes) && len(ts) < 32; i += 4 {
			ts = append(ts, protocol.Transition{
				Q:  int32(int(transBytes[i]) % numStates),
				R:  int32(int(transBytes[i+1]) % numStates),
				Q2: int32(int(transBytes[i+2]) % numStates),
				R2: int32(int(transBytes[i+3]) % numStates),
			})
		}
		p := &protocol.Protocol{
			Name: "fuzz", States: states, Transitions: ts,
			Input: input, Accepting: accepting,
		}
		if err := p.Validate(); err != nil {
			return
		}

		c := p.NewConfig()
		c.Add(0, 2) // StepN needs at least two agents
		for i, b := range countBytes {
			if i >= 16 {
				break
			}
			c.Add(i%numStates, int64(b%8))
		}
		size := c.Size()
		n := int64(1 + int(batch)%96)

		// Legal states: anything seeded plus anything some transition can
		// produce. The scheduler must never move agents elsewhere.
		legal := make([]bool, numStates)
		for _, s := range c.Support() {
			legal[s] = true
		}
		for _, tr := range ts {
			legal[tr.Q2] = true
			legal[tr.R2] = true
		}

		// Per-step batch mode must agree exactly with single Step calls on
		// the same seed.
		c1 := c.Clone()
		c2 := c.Clone()
		perStep := NewBatchRandomPair(p, NewRand(seed))
		perStep.skipThreshold = 0
		stepper := NewBatchRandomPair(p, NewRand(seed))
		eff := perStep.StepN(c1, n)
		var want int64
		for i := int64(0); i < n; i++ {
			if stepper.Step(c2) {
				want++
			}
		}
		if eff != want {
			t.Fatalf("per-step batch mode: %d effective, %d from single Steps", eff, want)
		}
		if !c1.Equal(c2) {
			t.Fatalf("per-step batch mode diverged: %v vs %v", c1, c2)
		}

		// Skip mode: invariants only (its law is pinned by the
		// equivalence suite).
		c3 := c.Clone()
		skipper := NewBatchRandomPair(p, NewRand(seed^0x5DEECE66D))
		skipper.skipThreshold = 2
		eff3 := skipper.StepN(c3, n)
		if eff3 < 0 || eff3 > n {
			t.Fatalf("effective count %d outside [0, %d]", eff3, n)
		}

		// Collision kernel, default knobs: fuzz populations are tiny, so
		// every chunk must take the exact fallback path — same invariants.
		c4 := c.Clone()
		kernel := NewCollisionKernel(p, NewRand(seed^0x2545F491))
		eff4 := kernel.StepN(c4, n)
		if eff4 < 0 || eff4 > n {
			t.Fatalf("kernel effective count %d outside [0, %d]", eff4, n)
		}
		if eff4 == 0 && !c4.Equal(c) {
			t.Fatal("kernel: zero effective steps but the configuration changed")
		}

		// Collision kernel, knobs forced so bulk rounds engage even on tiny
		// populations — exercises the bulk/fallback handoff boundary and
		// the discard of rounds that would drive a count negative under
		// arbitrary protocols.
		c5 := c.Clone()
		forced := NewCollisionKernel(p, NewRand(seed^0x9E3779B9))
		forced.margin = 2
		forced.critical = 2
		forced.roundCap = 16
		eff5 := forced.StepN(c5, n)
		if eff5 < 0 || eff5 > n {
			t.Fatalf("forced-bulk effective count %d outside [0, %d]", eff5, n)
		}
		if eff5 == 0 && !c5.Equal(c) {
			t.Fatal("forced-bulk: zero effective steps but the configuration changed")
		}
		for s := 0; s < numStates; s++ {
			if c4.Count(s) < 0 || c5.Count(s) < 0 {
				t.Fatalf("kernel drove a count negative: %v / %v", c4, c5)
			}
		}

		for _, cc := range []interface {
			Size() int64
			Support() []int
		}{c1, c3, c4, c5} {
			if cc.Size() != size {
				t.Fatalf("population size changed: %d -> %d", size, cc.Size())
			}
			for _, s := range cc.Support() {
				if !legal[s] {
					t.Fatalf("agent reached illegal state %d", s)
				}
			}
		}
		if eff3 == 0 && !c3.Equal(c) {
			t.Fatal("zero effective steps but the configuration changed")
		}
	})
}
