package sched

// S3: FuzzGraphSample throws random protocols, topologies, edge-selection
// policies and fault sequences at the graph scheduler and checks the
// structural contract on every path: a selected edge always joins two alive
// agents (never a non-adjacent pair), the Fenwick-indexed weights stay
// consistent with the alive sets after arbitrary crash/revive/join
// interleavings, and the tracked per-agent states always sum to the
// attached configuration.

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
)

func FuzzGraphSample(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 1, 1, 1, 1, 0, 0, 0}, uint8(0), uint8(8), uint8(0), []byte{0, 1, 2, 3})
	f.Add(int64(7), uint8(2), []byte{0, 0, 1, 1}, uint8(1), uint8(6), uint8(1), []byte{9, 9, 130, 131, 4})
	f.Add(int64(42), uint8(6), []byte{0, 1, 2, 3, 3, 2, 1, 0}, uint8(2), uint8(12), uint8(2), []byte{200, 100, 0, 255, 17})
	f.Add(int64(-3), uint8(0), []byte{}, uint8(3), uint8(2), uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, ns uint8, transBytes []byte, topoKind, szByte, policy uint8, ops []byte) {
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

		n := 2 + int(szByte)%14 // 2..15 agents
		var topo *Topology
		var err error
		switch topoKind % 4 {
		case 0:
			topo, err = CliqueTopology(n)
		case 1:
			topo, err = RingTopology(n)
		case 2:
			topo, err = GridTopology(2, (n+1)/2)
		default:
			topo, err = PowerLawTopology(n, 2, seed)
		}
		if err != nil {
			t.Fatal(err)
		}

		// Rate-driven faults stay on; scripted ops below add deterministic
		// crash/revive/join calls on top.
		s, err := newGraphScheduler(p, topo, NewRand(seed), TopologySpec{
			Policy: conformancePolicies[int(policy)%len(conformancePolicies)],
			Crash:  0.1, Revive: 0.2, Join: 0.05,
			JoinState: int(ns) % numStates,
		})
		if err != nil {
			t.Fatal(err)
		}
		c := p.NewConfig()
		for i := 0; i < topo.N; i++ {
			c.Add(i%numStates, 1)
		}
		s.Bind(c)

		// The sampling contract: every selected edge has weight 1 and joins
		// two alive agents.
		s.onSelect = func(e int) {
			if e < 0 || e >= len(s.ends) {
				t.Fatalf("selected edge %d out of range (%d edges)", e, len(s.ends))
			}
			if s.weights[e] != 1 {
				t.Fatalf("selected edge %d has weight %d", e, s.weights[e])
			}
			a, b := s.ends[e][0], s.ends[e][1]
			if !s.alive[a] || !s.alive[b] {
				t.Fatalf("selected edge %d joins a crashed agent (%d alive=%v, %d alive=%v)",
					e, a, s.alive[a], b, s.alive[b])
			}
		}

		for i, op := range ops {
			if i >= 64 {
				break
			}
			target := int(op&0x3f) % max(s.NumAgents(), 1)
			switch op >> 6 {
			case 0:
				s.Step(c)
			case 1:
				_ = s.CrashAgent(target) // may legally refuse (floor, already crashed)
			case 2:
				_ = s.ReviveAgent(target) // may legally refuse (not crashed)
			case 3:
				if _, err := s.JoinAgent(int(op) % numStates); err != nil {
					t.Fatalf("join in state %d refused: %v", int(op)%numStates, err)
				}
			}
			if err := s.checkInvariants(); err != nil {
				t.Fatalf("invariants after op %d (%#x): %v", i, op, err)
			}
		}
		for i := 0; i < 32; i++ {
			s.Step(c)
		}
		if err := s.checkInvariants(); err != nil {
			t.Fatalf("invariants after trailing steps: %v", err)
		}
		if int64(s.NumAgents()) != c.Size() {
			t.Fatalf("tracked %d agents, configuration holds %d", s.NumAgents(), c.Size())
		}
	})
}
