package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// countingSource counts the draws it serves from its *rand.Rand.
type countingSource struct {
	rng   *rand.Rand
	draws int
}

func (s *countingSource) Float64() float64     { s.draws++; return s.rng.Float64() }
func (s *countingSource) Int63n(n int64) int64 { s.draws++; return s.rng.Int63n(n) }
func (s *countingSource) Intn(n int) int       { s.draws++; return s.rng.Intn(n) }

// stirlerr is ln(x!) − ln(√(2πx)·(x/e)ˣ), Loader's Stirling-formula error,
// for real x > 0.
func stirlerr(x float64) float64 {
	const s0, s1, s2, s3, s4 = 1.0 / 12, 1.0 / 360, 1.0 / 1260, 1.0 / 1680, 1.0 / 1188
	if x <= 15 {
		lg, _ := math.Lgamma(x + 1)
		return lg - (x+0.5)*math.Log(x) + x - 0.5*math.Log(2*math.Pi)
	}
	xx := x * x
	switch {
	case x > 500:
		return (s0 - s1/xx) / x
	case x > 80:
		return (s0 - (s1-s2/xx)/xx) / x
	case x > 35:
		return (s0 - (s1-(s2-s3/xx)/xx)/xx) / x
	}
	return (s0 - (s1-(s2-(s3-s4/xx)/xx)/xx)/xx) / x
}

// bd0 is x·ln(x/np) + np − x, computed without cancellation near x = np.
func bd0(x, np float64) float64 {
	if math.Abs(x-np) < 0.1*(x+np) {
		v := (x - np) / (x + np)
		s := (x - np) * v
		ej := 2 * x * v
		for j := 1; ; j++ {
			ej *= v * v
			s1 := s + ej/float64(2*j+1)
			if s1 == s {
				return s1
			}
			s = s1
		}
	}
	return x*math.Log(x/np) + np - x
}

// binomialPMF is P(X = x) for X ~ Binomial(n, p), extended to real x in
// [0, n] by Loader's saddle-point expansion (accurate to about 1e−15
// relative), so it can be integrated over the bins of distributions far too
// wide to sum term by term.
func binomialPMF(x, n, p float64) float64 {
	q := 1 - p
	switch {
	case x == 0:
		return math.Exp(n * math.Log1p(-p))
	case x == n:
		return math.Exp(n * math.Log(p))
	}
	lc := stirlerr(n) - stirlerr(x) - stirlerr(n-x) - bd0(x, n*p) - bd0(n-x, n*q)
	lf := math.Log(2*math.Pi) + math.Log(x) + math.Log1p(-x/n)
	return math.Exp(lc - 0.5*lf)
}

// simpson integrates f over [a, b] with panels (even) panels.
func simpson(f func(float64) float64, a, b float64, panels int) float64 {
	h := (b - a) / float64(panels)
	s := f(a) + f(b)
	for i := 1; i < panels; i++ {
		w := 2.0
		if i%2 == 1 {
			w = 4
		}
		s += w * f(a+float64(i)*h)
	}
	return s * h / 3
}

// binomialBins partitions the support of Binomial(n, p) into bins: edges[j]
// is the smallest value of bin j+1 (bin 0 takes everything below edges[0]),
// and probs[j] is bin j's probability. Narrow distributions are summed term
// by term into bins closed at the quantiles 0.001, 0.005, 0.02, 0.05, 0.1,
// …, 0.9, 0.95, 0.98, 0.995 and 0.999, so both tails get bins of their own;
// wide ones get bins half a standard deviation wide out to ±3.5 sd, with
// probabilities by integrating the pmf's continuous extension (midpoint
// error ~1/(24σ²)).
func binomialBins(n int64, p float64) (edges []int64, probs []float64) {
	nf := float64(n)
	mean, sd := nf*p, math.Sqrt(nf*p*(1-p))
	pmf := func(x float64) float64 {
		if x < 0 || x > nf {
			return 0
		}
		return binomialPMF(x, nf, p)
	}
	if sd < 1500 {
		quantiles := []float64{0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.995, 0.999}
		lo := max(0, int64(mean-12*sd-30))
		hi := min(n, int64(mean+12*sd+30))
		var cum, mass float64
		for k := lo; k <= hi; k++ {
			pk := pmf(float64(k))
			cum += pk
			mass += pk
			if len(quantiles) > 0 && cum >= quantiles[0] && k < hi {
				edges = append(edges, k+1)
				probs = append(probs, mass)
				mass = 0
				for len(quantiles) > 0 && cum >= quantiles[0] {
					quantiles = quantiles[1:]
				}
			}
		}
		return edges, append(probs, mass)
	}
	for z := -3.5; z <= 3.5; z += 0.5 {
		edges = append(edges, int64(mean+z*sd))
	}
	x := mean - 12*sd
	for _, e := range edges {
		b := float64(e) - 0.5
		probs = append(probs, simpson(pmf, x, b, 256))
		x = b
	}
	return edges, append(probs, simpson(pmf, x, mean+12*sd, 256))
}

// mergeSparseBins folds every bin expecting fewer than 5 of draws values
// into its neighbour, the chi-squared test's usual validity condition.
func mergeSparseBins(edges []int64, probs []float64, draws float64) ([]int64, []float64) {
	for j := 0; j < len(probs) && len(probs) > 1; {
		if probs[j]*draws >= 5 {
			j++
			continue
		}
		if j == len(probs)-1 { // into the previous bin
			probs[j-1] += probs[j]
			probs, edges = probs[:j], edges[:j-1]
			continue
		}
		probs[j+1] += probs[j]
		probs = append(probs[:j], probs[j+1:]...)
		edges = append(edges[:j], edges[j+1:]...)
	}
	return edges, probs
}

// binOf returns the bin of value v under edges.
func binOf(edges []int64, v int64) int {
	j := 0
	for j < len(edges) && v >= edges[j] {
		j++
	}
	return j
}

// chiSquaredQuantile is the upper-α quantile of χ² with df degrees of
// freedom, by the Wilson–Hilferty approximation (z = 3.719 for α = 10⁻⁴).
func chiSquaredQuantile(df int) float64 {
	const z = 3.719
	d := float64(df)
	c := 1 - 2/(9*d) + z*math.Sqrt(2/(9*d))
	return d * c * c * c
}

// TestBinomialMatchesPMF draws 50,000 values at each point of an (n, p)
// grid and compares their histogram with the exact pmf by a chi-squared
// goodness-of-fit test at α = 10⁻⁴ per point. The grid covers both
// samplers (inversion below mean 30, BTPE above), both tails
// (p ≤ 10⁻⁹ and p ≥ 1 − 10⁻⁶, where the plan samples the failures) and n
// from 1 to 2⁶², where BTPE's offsets from the mode carry the precision.
func TestBinomialMatchesPMF(t *testing.T) {
	ns := []int64{1, 7, 40, 1000, 1_000_000, 1 << 32, 1 << 62}
	ps := []float64{1e-12, 1e-9, 3e-7, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.999, 1 - 1e-6, 1 - 1e-9}
	const draws = 50_000
	var inversion, btpe int
	seed := int64(0)
	for _, n := range ns {
		for _, p := range ps {
			seed++
			// Bin the minority outcome, Binomial(n, min(p, 1−p)), so that
			// the bins of p near 1 are not rounded at the scale of n.
			r, flip := p, p > 0.5
			if flip {
				r = 1 - p
			}
			edges, probs := binomialBins(n, r)
			edges, probs = mergeSparseBins(edges, probs, draws)
			var total float64
			for _, pr := range probs {
				total += pr
			}
			if math.Abs(total-1) > 1e-6 {
				t.Fatalf("n=%d p=%g: reference bins hold mass %v", n, p, total)
			}
			var plan binomialPlan
			rng := rand.New(rand.NewSource(seed))
			obs := make([]float64, len(probs))
			for i := 0; i < draws; i++ {
				v := plan.binomial(rng, n, p)
				if v < 0 || v > n {
					t.Fatalf("n=%d p=%g: draw %d outside [0, n]", n, p, v)
				}
				if flip {
					v = n - v
				}
				obs[binOf(edges, v)]++
			}
			if plan.btpe {
				btpe++
			} else {
				inversion++
			}
			if len(probs) < 2 {
				continue // a point mass up to 10⁻⁶: nothing to fit
			}
			var stat float64
			for j, pr := range probs {
				e := pr * draws
				stat += (obs[j] - e) * (obs[j] - e) / e
			}
			if crit := chiSquaredQuantile(len(probs) - 1); stat > crit {
				t.Errorf("n=%d p=%g (btpe=%v): χ² = %.1f over %d bins exceeds %.1f\nobserved %v\nexpected %v",
					n, p, plan.btpe, stat, len(probs), crit, obs, probs)
			}
		}
	}
	if inversion < 10 || btpe < 10 {
		t.Fatalf("grid reached %d inversion and %d BTPE points; want both branches covered", inversion, btpe)
	}
}

// TestBinomialEdgeCases: n ≤ 0, p ≤ 0 (NaN included) and p ≥ 1 are decided
// without a draw.
func TestBinomialEdgeCases(t *testing.T) {
	cases := []struct {
		n    int64
		p    float64
		want int64
	}{
		{0, 0.5, 0}, {-3, 0.5, 0}, {100, 0, 0}, {100, -1, 0}, {100, math.NaN(), 0},
		{100, 1, 100}, {100, 2, 100}, {100, math.Inf(1), 100}, {0, 1, 0},
		{math.MaxInt64, 1, math.MaxInt64},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d,p=%g", tc.n, tc.p), func(t *testing.T) {
			src := &countingSource{rng: rand.New(rand.NewSource(1))}
			var plan binomialPlan
			if got := plan.binomial(src, tc.n, tc.p); got != tc.want || src.draws != 0 {
				t.Fatalf("Binomial(%d, %g) = %d after %d draws, want %d after none", tc.n, tc.p, got, src.draws, tc.want)
			}
		})
	}
}

// FuzzBinomialPlan: for any (n, p), NaN and infinities included, a draw
// lies in [0, max(n, 0)], and a memoised plan and fresh plans fed equally
// seeded sources return equal values twice in a row (the plan's second
// call reads its memo) and leave their streams at the same position.
func FuzzBinomialPlan(f *testing.F) {
	f.Add(int64(1), int64(1024), 0.001)
	f.Add(int64(2), int64(32), 0.49)
	f.Add(int64(3), int64(1<<20), 6.1e-5)
	f.Add(int64(4), int64(100), 0.9)
	f.Add(int64(5), int64(math.MaxInt64), 0.3)
	f.Fuzz(func(t *testing.T, seed, n int64, p float64) {
		var plan binomialPlan
		a := &countingSource{rng: rand.New(rand.NewSource(seed))}
		b := &countingSource{rng: rand.New(rand.NewSource(seed))}
		for i := 0; i < 2; i++ {
			got, want := plan.binomial(a, n, p), binomial(b, n, p)
			if got != want {
				t.Fatalf("draw %d of Binomial(%d, %g): plan %d, fresh %d", i, n, p, got, want)
			}
			if got < 0 || got > max(n, 0) {
				t.Fatalf("draw %d of Binomial(%d, %g) = %d outside [0, n]", i, n, p, got)
			}
		}
		if a.draws != b.draws || a.rng.Int63() != b.rng.Int63() {
			t.Fatalf("Binomial(%d, %g): streams end apart (%d vs %d draws)", n, p, a.draws, b.draws)
		}
	})
}
