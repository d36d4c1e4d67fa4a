package simulate

import (
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/fluid"
	"repro/internal/obs"
	"repro/internal/popprog"
	"repro/internal/protocol"
	"repro/internal/sched"
)

// TestLadderMajorityTrillion is the headline golden run of the simulation
// ladder: majority at m = 10¹² (0.55/0.45 split), a scale where the
// collision kernel's integral weight arithmetic overflows (Λ·m·(m+1) >
// MaxInt64) and only the fluid tier can progress. The hybrid must stay
// fluid (forced-fluid rule), converge to the true majority in well under a
// second of wall time, and record its tier routing in telemetry.
func TestLadderMajorityTrillion(t *testing.T) {
	defer obs.Disable()
	met := obs.Enable()

	p := majority(t)
	const m = int64(1_000_000_000_000)
	opts := Options{Kernel: KernelAuto, MaxSteps: 1 << 62}
	t0 := time.Now()
	res, err := convergenceRun(p, []int64{m * 55 / 100, m * 45 / 100}, 0, 7, opts)
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("output = %v, want true (X majority)", res.Output)
	}
	if res.Final.Size() != m {
		t.Fatalf("mass not conserved: final population %d, want %d", res.Final.Size(), m)
	}
	if res.Final.Count(p.StateIndex("Y")) != 0 || res.Final.Count(p.StateIndex("y")) != 0 {
		t.Fatalf("minority residue: Y=%d y=%d", res.Final.Count(p.StateIndex("Y")), res.Final.Count(p.StateIndex("y")))
	}
	sm := met.Sched()
	if sm.FluidChunks.Load() == 0 {
		t.Fatal("no fluid chunks recorded at m = 10¹²")
	}
	if sm.DiscreteChunks.Load() != 0 {
		t.Fatalf("forced-fluid rule violated: %d discrete chunks at m = 10¹²", sm.DiscreteChunks.Load())
	}
	// < 100 ms is the acceptance bar; allow slack for loaded CI machines.
	if wall > 2*time.Second {
		t.Fatalf("m = 10¹² majority took %s", wall)
	}
	t.Logf("m=1e12 majority: %d steps (%.0f parallel time) in %s, %d fluid chunks, %d RK steps",
		res.Steps, res.ParallelTime(), wall, sm.FluidChunks.Load(), sm.FluidRKSteps.Load())
}

// thresholdGE1 builds the threshold x ≥ 1: the hand-written x ≥ 1 program
// compiled (§7.2) and converted (§7.3) to a population protocol — the same
// pipeline E10/E16 measure. The returned Result carries the pointer set for
// the leader-model initial configuration.
func thresholdGE1(t testing.TB) *convert.Result {
	t.Helper()
	prog := &popprog.Program{
		Name:      "ge1",
		Registers: []string{"x"},
		Procedures: []*popprog.Procedure{{
			Name: "Main",
			Body: []popprog.Stmt{
				popprog.SetOF{Value: false},
				popprog.While{Cond: popprog.Not{C: popprog.Detect{Reg: 0}}},
				popprog.SetOF{Value: true},
				popprog.While{Cond: popprog.True{}},
			},
		}},
	}
	machine, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := convert.Convert(machine)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLadderThresholdTrillion runs the threshold family the paper's
// construction decides — x ≥ k as a population predicate — at m = 10¹²
// through the fluid tier. The vehicle is the unary threshold protocol
// (E12's baseline family): its dynamics are entirely macroscopic (the
// absorbing accept state is produced at macroscopic rate), so the
// mean-field tier is exact in the limit and the run finishes in
// milliseconds where the discrete tiers would need ~10¹³ interactions.
// The rejecting side (population below the threshold) is checked at the
// exact tier, where it is a finite computation.
func TestLadderThresholdTrillion(t *testing.T) {
	defer obs.Disable()
	met := obs.Enable()

	p, err := baseline.UnaryThreshold(8)
	if err != nil {
		t.Fatal(err)
	}

	const m = int64(1_000_000_000_000)
	t0 := time.Now()
	res, err := convergenceRun(p, []int64{m}, 0, 11, Options{Kernel: KernelAuto, MaxSteps: 1 << 62})
	wall := time.Since(t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != protocol.OutputTrue {
		t.Fatalf("x ≥ 8 at m = 10¹²: output %v, want true", res.Output)
	}
	if res.Final.Size() != m {
		t.Fatalf("mass not conserved: %d, want %d", res.Final.Size(), m)
	}
	if got := res.Final.Count(p.StateIndex("K")); got != m {
		t.Fatalf("accept state K holds %d of %d agents", got, m)
	}
	sm := met.Sched()
	if sm.FluidChunks.Load() == 0 || sm.DiscreteChunks.Load() != 0 {
		t.Fatalf("tier routing: %d fluid / %d discrete chunks, want all-fluid",
			sm.FluidChunks.Load(), sm.DiscreteChunks.Load())
	}
	// < 100 ms is the acceptance bar; allow slack for loaded CI machines.
	if wall > 2*time.Second {
		t.Fatalf("m = 10¹² threshold took %s", wall)
	}
	t.Logf("m=1e12 unary x≥8: %d steps (%.1f parallel time) in %s, %d fluid chunks",
		res.Steps, res.ParallelTime(), wall, sm.FluidChunks.Load())

	// Rejecting side at the exact tier: 7 agents cannot pool to 8.
	rej, err := convergenceRun(p, []int64{7}, 0, 3, Options{Kernel: KernelExact})
	if err != nil {
		t.Fatal(err)
	}
	if rej.Output != protocol.OutputFalse {
		t.Fatalf("x ≥ 8 at m = 7: output %v, want false", rej.Output)
	}
}

// TestLadderConvertedLeaderModel pins how the ladder treats the x ≥ 1
// program compiled (§7.2) and machine-converted (§7.3), leader model. Its
// |F| pointer agents are *microscopic* — single agents walking an
// instruction cycle — which is exactly the regime the mean-field limit
// cannot represent: in the ODE the pointer mass smears into a
// quasi-stationary distribution over instruction states and the
// non-accepting residue never clears (observed empirically: "mixed" output
// persists past τ = 78·m at m = 10⁴). Two contracts follow:
//
//  1. The exact tier decides the construction correctly: the output flag
//     flips and the accepting opinion reaches the whole population within
//     O(m) parallel time (Θ(m²) interactions — each instruction handoff
//     is a pointer–pointer rendezvous costing Θ(m) parallel time).
//  2. The hybrid ladder refuses the fluid tier for it: pointer counts sit
//     in (0, floor) forever, so every chunk routes to the collision
//     kernel and no regime switch is ever recorded.
func TestLadderConvertedLeaderModel(t *testing.T) {
	res := thresholdGE1(t)
	p := res.Protocol

	// Exact-tier baseline at m = 512: flip observed at ≈ 20·m parallel
	// time; a 40·m budget (≈ 10⁷ interactions) gives 2× margin.
	const small = int64(512)
	cfg, err := res.LeaderConfig(small-int64(res.NumPointers), 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(p, sched.NewRand(3), Options{Kernel: KernelExact}, small)
	if err != nil {
		t.Fatal(err)
	}
	bs := s.(sched.BatchScheduler)
	bs.StepN(cfg, 40*small*small)
	if out := p.OutputOf(cfg); out != protocol.OutputTrue {
		t.Fatalf("exact tier after 40·m² interactions: output %v, want true", out)
	}
	if cfg.Size() != small {
		t.Fatalf("mass not conserved: %d, want %d", cfg.Size(), small)
	}

	// Hybrid routing at m = 10⁶: every chunk must take the discrete path.
	defer obs.Disable()
	met := obs.Enable()
	const big = int64(1_000_000)
	bigCfg, err := res.LeaderConfig(big-int64(res.NumPointers), 0)
	if err != nil {
		t.Fatal(err)
	}
	h := fluid.NewHybrid(p, sched.NewRand(5))
	h.StepN(bigCfg, 4_000_000)
	sm := met.Sched()
	if sm.FluidChunks.Load() != 0 {
		t.Fatalf("hybrid sent %d chunks to the fluid tier despite microscopic pointers",
			sm.FluidChunks.Load())
	}
	if sm.DiscreteChunks.Load() == 0 {
		t.Fatal("hybrid recorded no discrete chunks")
	}
	if sm.RegimeSwitches.Load() != 0 {
		t.Fatalf("hybrid recorded %d regime switches on an always-discrete run",
			sm.RegimeSwitches.Load())
	}
	if bigCfg.Size() != big {
		t.Fatalf("mass not conserved: %d, want %d", bigCfg.Size(), big)
	}
}

// BenchmarkLadderConvergence measures full convergence runs of majority at
// populations only the fluid tier can reach, end to end through the auto
// kernel. The reported represented/ns is the number of uniform random-pair
// interactions the run *represents* per nanosecond of wall time — the
// ladder's headline number: at m = 10¹² a single discrete interaction of
// the exact kernel costs more than the fluid tier's whole 10¹⁴-interaction
// trajectory. (Its inverse, ns per represented interaction, is below the
// printed precision at m = 10¹² and reads 0.)
func BenchmarkLadderConvergence(b *testing.B) {
	p := majority(b)
	for _, m := range []int64{1_000_000_000, 1_000_000_000_000} {
		name := "m=1e9"
		if m == 1_000_000_000_000 {
			name = "m=1e12"
		}
		b.Run(name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				res, err := convergenceRun(p, []int64{m * 55 / 100, m * 45 / 100}, i, 7,
					Options{Kernel: KernelAuto, MaxSteps: 1 << 62})
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "interactions/run")
			b.ReportMetric(float64(steps)/float64(b.Elapsed().Nanoseconds()), "represented/ns")
		})
	}
}
