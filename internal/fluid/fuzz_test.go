package fluid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/protocol"
)

// FuzzFluidStep throws random protocols and configurations at the ODE
// integrator and checks the invariants that must hold on every path: no
// panic, exact population conservation after writeback, no negative counts,
// and a finite simplex-normalised continuous state (no NaN/Inf escaping the
// integrator).
func FuzzFluidStep(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 1, 1, 1, 0, 0, 0}, []byte{3, 2}, uint16(64))
	f.Add(uint8(2), []byte{0, 0, 1, 1}, []byte{1, 1}, uint16(1000))
	f.Add(uint8(6), []byte{0, 1, 2, 3, 3, 2, 1, 0, 5, 5, 4, 4}, []byte{9, 0, 0, 1, 2}, uint16(65535))
	f.Add(uint8(0), []byte{}, []byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, ns uint8, transBytes, countBytes []byte, batch uint16) {
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
		c.Add(0, 2) // a population needs at least two agents
		for i, b := range countBytes {
			if i >= 16 {
				break
			}
			c.Add(i%numStates, int64(b)*int64(b)) // up to 65025 per entry
		}
		size := c.Size()
		n := int64(1 + int(batch))

		ig := NewIntegrator(p)
		for round := 0; round < 3; round++ {
			_, eff := ig.Advance(c, n, 0)
			if eff < 0 || eff > n {
				t.Fatalf("effective count %d outside [0, %d]", eff, n)
			}
			if c.Size() != size {
				t.Fatalf("round %d: population %d, want %d", round, c.Size(), size)
			}
			for s := 0; s < c.Len(); s++ {
				if c.Count(s) < 0 {
					t.Fatalf("round %d: count[%d] = %d", round, s, c.Count(s))
				}
			}
			var sum float64
			for _, v := range ig.x {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("round %d: continuous state %v", round, ig.x)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("round %d: Σx = %v, want 1", round, sum)
			}
		}
	})
}
