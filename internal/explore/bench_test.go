package explore

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/multiset"
	"repro/internal/popmachine"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// freeWalkProtocol builds a k-state protocol whose reachable set from any
// configuration is every composition of the population over the k states:
// q_i, q_j ↦ q_{i+1 mod k}, q_j for all ordered pairs. With k = 6 and
// m = 25 agents that is C(30,5) = 142506 reachable states with wide BFS
// levels — the acceptance instance for the parallel engine (≥ 10⁵ states).
func freeWalkProtocol(tb testing.TB, k int) *protocol.Protocol {
	tb.Helper()
	pb := protocol.NewBuilder(fmt.Sprintf("freewalk%d", k))
	names := make([]string, k)
	for i := range names {
		names[i] = fmt.Sprintf("q%d", i)
	}
	pb.Input(names...)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			pb.Transition(names[i], names[j], names[(i+1)%k], names[j])
		}
	}
	pb.Accepting(names[0])
	p, err := pb.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func freeWalkInitial(b *testing.B, p *protocol.Protocol, m int64) *multiset.Multiset {
	b.Helper()
	counts := make([]int64, len(p.States))
	counts[0] = m
	c, err := p.InitialConfig(counts...)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkExploreProtocol is the acceptance benchmark of the parallel
// engine on a protocol system: 142506 reachable multiset configurations,
// explored at 1, 2, 4 and 8 workers. Results are bit-identical across all
// variants; on a multi-core host the workers=4 case should run ≥2x faster
// than workers=1.
func BenchmarkExploreProtocol(b *testing.B) {
	const k, m = 6, 25
	p := freeWalkProtocol(b, k)
	sys := NewProtocolSystem(p)
	c := freeWalkInitial(b, p, m)
	const wantStates = 142506

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c},
					Options{MaxStates: 1_000_000, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if res.NumStates != wantStates {
					b.Fatalf("NumStates = %d, want %d", res.NumStates, wantStates)
				}
			}
			b.ReportMetric(wantStates, "reachable-states")
		})
	}
}

// BenchmarkExploreConverted explores a protocol of the paper's §7.3
// conversion: figure1 shrunk by convert.Optimize (492 states, 135,940
// transitions), leaderless with m = |F| + 1 = 12 agents (15,960 reachable
// configurations), on one worker. A configuration occupies at most 12 of
// the 492 states, so this is where per-successor cost must track the
// support, not |Q|. Units are per explored state.
func BenchmarkExploreConverted(b *testing.B) {
	const wantStates = 15_960
	p, c := convertedInstance(b, "figure1", false, 1)
	sys := NewProtocolSystem(p)
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ExploreParallel[*multiset.Multiset](sys, []*multiset.Multiset{c}, Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.NumStates != wantStates {
			b.Fatalf("NumStates = %d, want %d", res.NumStates, wantStates)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wantStates)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	reportPerState(b, wantStates, &before)
}

// reportPerState reports the bytes and allocations per explored state since
// before, over b.N explorations of states states each.
func reportPerState(b *testing.B, states int, before *runtime.MemStats) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	explored := float64(states) * float64(b.N)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/explored, "B/state")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/explored, "allocs/state")
}

// BenchmarkExploreMachine covers the population-machine system shape: the
// compiled Figure 1 machine explored from the union of every initial
// register placement of 7 agents (13,654 register-vector ×
// pointer-valuation states, deeper and narrower than protocol graphs). Each
// case also reports bytes and allocations per explored state.
func BenchmarkExploreMachine(b *testing.B) {
	machine, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		b.Fatal(err)
	}
	sys := popmachine.System{M: machine}
	initial := machinePlacements(b, machine, 7)

	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			states := 0
			for i := 0; i < b.N; i++ {
				res, err := ExploreParallel[*popmachine.Config](sys, initial,
					Options{MaxStates: 1_000_000, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				states = res.NumStates
			}
			b.StopTimer()
			b.ReportMetric(float64(states), "reachable-states")
			reportPerState(b, states, &before)
		})
	}
}
