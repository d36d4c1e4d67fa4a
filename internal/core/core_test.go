package core

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/multiset"
	"repro/internal/popprog"
)

func mustNew(t *testing.T, n int) *Construction {
	t.Helper()
	c, err := New(n)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return c
}

func TestLevelConstants(t *testing.T) {
	ns, err := LevelConstants(5)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 4, 25, 676, 458329}
	for i, w := range want {
		if ns[i].Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("N_%d = %s, want %d", i+1, ns[i], w)
		}
	}
	if _, err := LevelConstants(0); err == nil {
		t.Fatal("accepted n = 0")
	}
}

func TestThresholdValues(t *testing.T) {
	want := map[int]int64{1: 2, 2: 10, 3: 60, 4: 1412, 5: 918070}
	for n, w := range want {
		k, err := Threshold(n)
		if err != nil {
			t.Fatal(err)
		}
		if k.Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("k(%d) = %s, want %d", n, k, w)
		}
	}
}

func TestVerifyDoubleExp(t *testing.T) {
	// Theorem 3: k(n) ≥ 2^(2^(n-1)) for all n.
	for n := 1; n <= 12; n++ {
		ok, err := VerifyDoubleExp(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !ok {
			t.Fatalf("k(%d) < 2^(2^%d)", n, n-1)
		}
	}
}

// DoubleExpLowerBound returns 2^(2^(n-1)), the bound of Theorem 3
// (k ≥ 2^(2^(n-1))), materialised so k(n) can be compared with it directly.
// It is exact for n ≤ 30; beyond that the exponent itself no longer fits
// machine words, which is why VerifyDoubleExp compares bit lengths.
func DoubleExpLowerBound(n int) (*big.Int, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: need n ≥ 1, got %d", n)
	}
	if n > 30 {
		return nil, fmt.Errorf("core: 2^(2^(n-1)) with n = %d does not fit in memory", n)
	}
	exp := uint(1) << uint(n-1)
	return new(big.Int).Lsh(bigOne, exp), nil
}

func TestDoubleExpLowerBoundAgainstThreshold(t *testing.T) {
	for n := 1; n <= 8; n++ {
		k, err := Threshold(n)
		if err != nil {
			t.Fatal(err)
		}
		bound, err := DoubleExpLowerBound(n)
		if err != nil {
			t.Fatal(err)
		}
		if k.Cmp(bound) < 0 {
			t.Fatalf("n=%d: k = %s < 2^(2^(n-1)) = %s", n, k, bound)
		}
	}
	if _, err := DoubleExpLowerBound(40); err == nil {
		t.Fatal("DoubleExpLowerBound accepted an absurd n")
	}
}

func TestLayout(t *testing.T) {
	c := mustNew(t, 3)
	if c.NumRegisters() != 13 {
		t.Fatalf("NumRegisters = %d, want 13", c.NumRegisters())
	}
	// Bar is an involution pairing x↔x̄ and y↔ȳ.
	for i := 1; i <= 3; i++ {
		if c.Bar(c.X(i)) != c.XBar(i) || c.Bar(c.XBar(i)) != c.X(i) {
			t.Fatalf("level %d: x/x̄ pairing broken", i)
		}
		if c.Bar(c.Y(i)) != c.YBar(i) || c.Bar(c.YBar(i)) != c.Y(i) {
			t.Fatalf("level %d: y/ȳ pairing broken", i)
		}
		if c.lay.Level(c.X(i)) != i || c.lay.Level(c.YBar(i)) != i {
			t.Fatalf("level %d: Level() wrong", i)
		}
	}
	if c.lay.Level(c.R()) != 4 {
		t.Fatalf("R should be at level n+1")
	}
	names := c.Program.Registers
	if names[c.X(2)] != "x2" || names[c.XBar(2)] != "xb2" ||
		names[c.Y(2)] != "y2" || names[c.YBar(2)] != "yb2" || names[c.R()] != "R" {
		t.Fatalf("register names wrong: %v", names)
	}
}

func TestBarPanicsOnR(t *testing.T) {
	c := mustNew(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Bar(R) did not panic")
		}
	}()
	c.Bar(c.R())
}

func TestProgramValidatesAcrossLevels(t *testing.T) {
	for n := 1; n <= 6; n++ {
		c := mustNew(t, n)
		if err := c.Program.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestProgramSizeLinear(t *testing.T) {
	// Theorem 3: size O(n). Measure the per-level increment and verify it
	// is constant; report the constants for EXPERIMENTS.md.
	var sizes []int
	for n := 1; n <= 10; n++ {
		sizes = append(sizes, mustNew(t, n).Program.Size())
	}
	// The first increment differs (level-1 procedures are smaller: Large(·)
	// at i = 1 is a single detect, and there is no AssertProper(0)); from
	// n = 2 on, each extra level adds the same constant amount.
	d := sizes[2] - sizes[1]
	for i := 3; i < len(sizes); i++ {
		if got := sizes[i] - sizes[i-1]; got != d {
			t.Fatalf("size increments not eventually constant: %v", sizes)
		}
	}
	t.Logf("program size: %v (+%d per level from n = 2)", sizes, d)
}

func TestSwapSizeIsFourPerLevel(t *testing.T) {
	for n := 1; n <= 5; n++ {
		c := mustNew(t, n)
		if got := c.Program.SwapSize(); got != 4*n {
			t.Fatalf("n=%d: SwapSize = %d, want %d", n, got, 4*n)
		}
	}
}

func TestRegisterCountMatchesPaper(t *testing.T) {
	// 4n + 1 registers (§6).
	for n := 1; n <= 5; n++ {
		c := mustNew(t, n)
		if got := len(c.Program.Registers); got != 4*n+1 {
			t.Fatalf("n=%d: %d registers, want %d", n, got, 4*n+1)
		}
	}
}

// figure2Config builds a configuration over construction c from per-level
// values [x, x̄, y, ȳ] plus r agents in R.
func figure2Config(c *Construction, levels [][4]int64, r int64) *multiset.Multiset {
	cfg := multiset.New(c.NumRegisters())
	for li, vals := range levels {
		i := li + 1
		cfg.Set(c.X(i), vals[0])
		cfg.Set(c.XBar(i), vals[1])
		cfg.Set(c.Y(i), vals[2])
		cfg.Set(c.YBar(i), vals[3])
	}
	cfg.Set(c.R(), r)
	return cfg
}

func TestFigure2Classification(t *testing.T) {
	// Reproduce the five rows of Figure 2 at level i = 2 of a 2-level
	// construction (N₁ = 1, N₂ = 4).
	c := mustNew(t, 2)
	n1, n2 := int64(1), int64(4)

	proper := figure2Config(c, [][4]int64{{0, n1, 0, n1}, {0, n2, 0, n2}}, 0)
	if !c.IsProper(proper, 2) || !c.IsWeaklyProper(proper, 2) {
		t.Fatal("i-proper row misclassified")
	}
	if c.IsLow(proper, 2) || c.IsHigh(proper, 2) {
		t.Fatal("proper must be neither low nor high (both require not-proper)")
	}

	weakly := figure2Config(c, [][4]int64{{0, n1, 0, n1}, {3, n2 - 3, n2 - 1, 1}}, 0)
	if !c.IsWeaklyProper(weakly, 2) || c.IsProper(weakly, 2) {
		t.Fatal("weakly-proper row misclassified")
	}
	// Weakly proper with nonzero x is also 2-high (sums equal N₂).
	if !c.IsHigh(weakly, 2) {
		t.Fatal("weakly-proper with x > 0 should be high")
	}

	low := figure2Config(c, [][4]int64{{0, n1, 0, n1}, {0, n2 - 3, 0, n2}}, 0)
	if !c.IsLow(low, 2) || c.IsHigh(low, 2) || c.IsProper(low, 2) {
		t.Fatal("low row misclassified")
	}

	high := figure2Config(c, [][4]int64{{0, n1, 0, n1}, {3, n2, 2, n2 - 1}}, 0)
	if !c.IsHigh(high, 2) || c.IsLow(high, 2) {
		t.Fatal("high row misclassified")
	}

	empty := figure2Config(c, [][4]int64{{2, 4, 3, 3}, {0, 0, 0, 0}}, 0)
	if !c.IsEmpty(empty, 2) {
		t.Fatal("empty row misclassified")
	}
	if c.IsEmpty(empty, 1) {
		t.Fatal("level-1 registers are not empty")
	}
}

func TestClassifyOther(t *testing.T) {
	c := mustNew(t, 2)
	// Neither low nor high nor proper at level 2: x̄₂ below N₂ with x₂ = 1.
	cfg := figure2Config(c, [][4]int64{{0, 1, 0, 1}, {1, 0, 0, 0}}, 0)
	classes := c.Classify(cfg, 2)
	if len(classes) != 1 || classes[0] != ClassOther {
		t.Fatalf("Classify = %v, want [other]", classes)
	}
}

func TestClassStrings(t *testing.T) {
	for cl, want := range map[ConfigClass]string{
		ClassProper: "proper", ClassWeaklyProper: "weakly-proper",
		ClassLow: "low", ClassHigh: "high", ClassEmpty: "empty", ClassOther: "other",
	} {
		if cl.String() != want {
			t.Fatalf("%d.String() = %q", cl, cl.String())
		}
	}
}

func TestGoodConfigAboveThreshold(t *testing.T) {
	c := mustNew(t, 2) // k = 10
	for _, m := range []int64{10, 11, 15} {
		cfg, err := c.GoodConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Size() != m {
			t.Fatalf("m=%d: size %d", m, cfg.Size())
		}
		if !c.IsProper(cfg, 2) {
			t.Fatalf("m=%d: good config not n-proper: %v", m, cfg.Format(c.Program.Registers))
		}
		if cfg.Count(c.R()) != m-10 {
			t.Fatalf("m=%d: R = %d", m, cfg.Count(c.R()))
		}
	}
}

func TestGoodConfigBelowThreshold(t *testing.T) {
	c := mustNew(t, 2) // k = 10, N₁ = 1, N₂ = 4
	for m := int64(0); m < 10; m++ {
		cfg, err := c.GoodConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Size() != m {
			t.Fatalf("m=%d: size %d", m, cfg.Size())
		}
		j, above := c.GoodLevel(m)
		if above {
			t.Fatalf("m=%d flagged above threshold", m)
		}
		// The config must be j-low and (j+1)-empty, or j-proper and
		// (j+1)-empty (Lemma 4a covers the former; the latter occurs when
		// the leftover exactly fills level j and is (j+1)-low).
		lowOK := c.IsLow(cfg, j) && c.IsEmpty(cfg, j+1)
		properOK := c.IsProper(cfg, j) && c.IsEmpty(cfg, j+1)
		if !lowOK && !properOK {
			t.Fatalf("m=%d (j=%d): good config misclassified: %v",
				m, j, cfg.Format(c.Program.Registers))
		}
	}
}

func TestGoodConfigRejectsNegative(t *testing.T) {
	c := mustNew(t, 1)
	if _, err := c.GoodConfig(-1); err == nil {
		t.Fatal("accepted negative m")
	}
}

func TestDecideN1AllTotals(t *testing.T) {
	// n = 1: k = 2. The program decides m ≥ 2.
	c := mustNew(t, 1)
	for m := int64(1); m <= 5; m++ {
		want := m >= 2
		res, err := popprog.DecideTotal(c.Program, m, popprog.DecideOptions{
			Seed: m, Budget: 300_000, TruthProb: 0.8,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Output != want {
			t.Fatalf("m=%d: decided %v, want %v", m, res.Output, want)
		}
	}
}

func TestDecideN2AroundThreshold(t *testing.T) {
	// n = 2: k = 10.
	if testing.Short() {
		t.Skip("slow nondeterministic run")
	}
	c := mustNew(t, 2)
	for _, m := range []int64{8, 9, 10, 11, 13} {
		want := m >= 10
		res, err := popprog.DecideTotal(c.Program, m, popprog.DecideOptions{
			Seed: 100 + m, Budget: 3_000_000, TruthProb: 0.8, Attempts: 4,
			RestartHint: c.RestartHint(), HintProb: 0.25,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Output != want {
			t.Fatalf("m=%d: decided %v, want %v (restarts %d, steps %d)",
				m, res.Output, want, res.Restarts, res.Steps)
		}
	}
}

func TestDecideN3AroundThreshold(t *testing.T) {
	// n = 3: k = 60 — a threshold no 13-register unary protocol could
	// approach; the 13-register program decides it. Level-3 zero checks
	// cost Θ(N₃) nested operations, hence the large budget.
	if testing.Short() {
		t.Skip("tens of millions of interpreter steps")
	}
	c := mustNew(t, 3)
	for _, m := range []int64{58, 59, 60, 61} {
		want := m >= 60
		res, err := popprog.DecideTotal(c.Program, m, popprog.DecideOptions{
			Seed: 300 + m, Budget: 40_000_000, TruthProb: 0.9, Attempts: 4,
			RestartHint: c.RestartHint(), HintProb: 0.4,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if res.Output != want {
			t.Fatalf("m=%d: decided %v, want %v (restarts %d, steps %d)",
				m, res.Output, want, res.Restarts, res.Steps)
		}
	}
}

func TestDecideN2FromGoodConfig(t *testing.T) {
	// Starting exactly at the good configuration: Main may stabilise
	// without restarting at all once the configuration is right; at
	// minimum it must decide correctly.
	c := mustNew(t, 2)
	for _, m := range []int64{9, 10, 12} {
		cfg, err := c.GoodConfig(m)
		if err != nil {
			t.Fatal(err)
		}
		res, err := popprog.Decide(c.Program, cfg, popprog.DecideOptions{
			Seed: m, Budget: 3_000_000, TruthProb: 0.8, Attempts: 4,
		})
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if want := m >= 10; res.Output != want {
			t.Fatalf("m=%d from good config: decided %v, want %v", m, res.Output, want)
		}
	}
}
