package sched

import (
	"math"
	"math/rand"
	"testing"
)

// floatScript serves first as its first Float64 draw and a seeded stream
// after it, counting every Float64 draw.
type floatScript struct {
	first float64
	rng   *rand.Rand
	draws int
}

func (s *floatScript) Float64() float64 {
	s.draws++
	if s.draws == 1 {
		return s.first
	}
	return s.rng.Float64()
}
func (s *floatScript) Int63n(int64) int64 { panic("binomial draws only Float64") }
func (s *floatScript) Intn(int) int       { panic("binomial draws only Float64") }

// binomialBySkips is binomialGeometric as one geometricSkip per gap, taking
// log1p(−p) once per gap: the reference for hoisting it out of the loop.
func binomialBySkips(rng source, n int64, p float64) int64 {
	var successes, pos int64
	for {
		g := geometricSkip(rng, p)
		if g >= n-pos {
			return successes
		}
		pos += g + 1
		successes++
		if pos >= n {
			return successes
		}
	}
}

// TestBinomialPlanMatchesGeometric drives the plan's zero-success shortcut
// at its boundary: over an (n, p) grid with n·p ≤ 64, the first draw u is
// the threshold z itself, 1 to 4 ulps either side of it, (1−p)ⁿ and 2⁻²⁰
// either side of that, 0 and random values. The plan must return what
// binomialGeometric (and the per-gap geometricSkip loop it hoists log1p
// out of) returns, after as many Float64 draws. One plan serves the whole
// grid, so its memo is both hit and replaced.
func TestBinomialPlanMatchesGeometric(t *testing.T) {
	var ns []int64
	for n := int64(32); n <= 1<<20; n *= 2 {
		ns = append(ns, n, n+n/3)
	}
	ps := []float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.004, 0.01, 0.03, 0.1, 0.25, 0.4, 0.49}
	gen := rand.New(rand.NewSource(1))
	var plan binomialPlan
	var grid [][2]float64
	for _, n := range ns {
		for _, p := range append(ps, 64/float64(n)) {
			if float64(n)*p <= binomialExactCutoff && p <= 0.49 {
				grid = append(grid, [2]float64{float64(n), p})
			}
		}
	}
	randomPerPoint := 10_000 / len(grid)
	checked, zeros := 0, 0
	for _, np := range grid {
		n, p := int64(np[0]), np[1]
		l := math.Log1p(-p)
		center := math.Exp(float64(n) * l) // (1−p)ⁿ
		z := center * (1 - zeroBand)
		us := []float64{z, center, center * (1 - zeroBand/2), center * (1 + zeroBand), 0}
		for k, up, down := 0, z, z; k < 4; k++ {
			up, down = math.Nextafter(up, 2), math.Nextafter(down, -1)
			us = append(us, up, down)
		}
		for i := 0; i < randomPerPoint; i++ {
			if i%2 == 0 {
				us = append(us, gen.Float64())
			} else {
				// Near the threshold, where a wrong band would show.
				us = append(us, z*(1+(gen.Float64()-0.5)*0x1p-17))
			}
		}
		for i, u := range us {
			seed := int64(i)
			a := &floatScript{first: u, rng: rand.New(rand.NewSource(seed))}
			b := &floatScript{first: u, rng: rand.New(rand.NewSource(seed))}
			c := &floatScript{first: u, rng: rand.New(rand.NewSource(seed))}
			got := plan.binomial(a, n, p)
			want := binomialGeometric(b, n, p)
			ref := binomialBySkips(c, n, p)
			if got != want || want != ref || a.draws != b.draws || b.draws != c.draws {
				t.Fatalf("n=%d p=%g u=%v (z=%v): plan %d after %d draws, binomialGeometric %d after %d, per-gap %d after %d",
					n, p, u, z, got, a.draws, want, b.draws, ref, c.draws)
			}
			if plan.n != n || plan.p != p || plan.z != z {
				t.Fatalf("n=%d p=%g: memo holds (n=%d, p=%g, z=%v), want z=%v", n, p, plan.n, plan.p, plan.z, z)
			}
			checked++
			if got == 0 {
				zeros++
			}
		}
	}
	if zeros == 0 || zeros == checked {
		t.Fatalf("%d of %d draws gave zero successes; the grid must reach both sides of z", zeros, checked)
	}

	// A stale memo must not survive a change of n or of p: u sits between
	// the two thresholds, so a kept z would decide it wrongly.
	for _, tc := range []struct{ n1, n2 int64 }{{1000, 1000}, {1000, 4000}} {
		p1, p2 := 1e-5, 2e-4
		if tc.n1 != tc.n2 {
			p2 = p1
		}
		var plan binomialPlan
		plan.binomial(&floatScript{first: 0.5, rng: rand.New(rand.NewSource(2))}, tc.n1, p1)
		z1 := plan.z
		z2 := math.Exp(float64(tc.n2)*math.Log1p(-p2)) * (1 - zeroBand)
		u := (z1 + z2) / 2
		got := plan.binomial(&floatScript{first: u, rng: rand.New(rand.NewSource(3))}, tc.n2, p2)
		want := binomialGeometric(&floatScript{first: u, rng: rand.New(rand.NewSource(3))}, tc.n2, p2)
		if got != want || want == 0 || plan.z != z2 {
			t.Fatalf("(n, p) = (%d, %g) after (%d, %g): plan %d, want %d > 0; memo z %v, want %v",
				tc.n2, p2, tc.n1, p1, got, want, plan.z, z2)
		}
	}
}

// countingSource counts the draws it serves from its *rand.Rand.
type countingSource struct {
	rng   *rand.Rand
	draws int
}

func (s *countingSource) Float64() float64     { s.draws++; return s.rng.Float64() }
func (s *countingSource) Int63n(n int64) int64 { s.draws++; return s.rng.Int63n(n) }
func (s *countingSource) Intn(n int) int       { s.draws++; return s.rng.Intn(n) }

// FuzzBinomialPlan: for any (n, p), NaN and infinities included, the plan
// and the package-level binomial fed identically seeded sources return the
// same values, twice in a row (the second call reads the memo), and leave
// their streams at the same position.
func FuzzBinomialPlan(f *testing.F) {
	f.Add(int64(1), int64(1024), 0.001)
	f.Add(int64(2), int64(32), 0.49)
	f.Add(int64(3), int64(1<<20), 6.1e-5)
	f.Add(int64(4), int64(100), 0.9)
	f.Add(int64(5), int64(1<<20), 0.3)
	f.Fuzz(func(t *testing.T, seed, n int64, p float64) {
		var plan binomialPlan
		a := &countingSource{rng: rand.New(rand.NewSource(seed))}
		b := &countingSource{rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 2; i++ {
			if got, want := plan.binomial(a, n, p), binomial(b, n, p); got != want {
				t.Fatalf("draw %d of Binomial(%d, %g): plan %d, binomial %d", i, n, p, got, want)
			}
		}
		if a.draws != b.draws || a.rng.Int63() != b.rng.Int63() {
			t.Fatalf("Binomial(%d, %g): streams end apart (%d vs %d draws)", n, p, a.draws, b.draws)
		}
	})
}
