package sched

import "math"

// binomialInversionMean is the mean n·min(p, 1−p) below which binomialPlan
// samples by inversion; at or above it, by BTPE. Inversion costs O(mean)
// iterations per draw and BTPE O(1) expected, and 30 is where
// Kachitvichyanukul & Schmeiser put the crossover.
const binomialInversionMean = 30

// binomialPlan draws from Binomial(n, p) exactly, for any n ≥ 0 up to
// 2⁶³−1: by inversion for small means and by BTPE (Kachitvichyanukul &
// Schmeiser, CACM 31(2), 1988) otherwise, both run on r = min(p, 1−p) with
// a draw for r mirrored to n − draw. The per-(n, p) setup is memoised, so
// repeated draws at one (n, p) reuse it; in particular a repeated inversion
// draw that yields zero successes costs one uniform draw and one
// comparison against the memoised (1−r)ⁿ.
//
// BTPE is computed in offsets from the mode m, not in absolute values, so
// that no quantity near n (up to 2⁶²) is rounded to float64 before the
// differences the acceptance test needs are taken: a draw's distance from
// m, the log-ratios of the Stirling test and the tail bounds all stay
// exact to float64's relative precision.
type binomialPlan struct {
	// n and p are the memoised draw's parameters; n = 0 until the first
	// draw that needs a setup.
	n int64
	p float64

	r, q float64 // r = min(p, 1−p), q = 1 − r
	flip bool    // p > 1/2: return n − draw
	btpe bool

	// Inversion: qn = (1−r)ⁿ = P(X = 0); a draw past bound (mean + 10 sd)
	// restarts, as in the reference implementation.
	qn    float64
	bound int64

	// BTPE: mode m; the hat's regions p1 < p2 < p3 < p4 (triangle,
	// parallelograms, left and right exponential tails); the region edges
	// xl, xr as offsets from m; the tail rates laml, lamr; c and nrq = n·r·q.
	m                          int64
	p1, p2, p3, p4             float64
	xl, xr, c, laml, lamr, nrq float64
}

// binomial draws from Binomial(n, p) exactly with a fresh plan.
func binomial(rng source, n int64, p float64) int64 {
	var bp binomialPlan
	return bp.binomial(rng, n, p)
}

// binomial draws from Binomial(n, p), reusing the plan's setup when (n, p)
// repeats. n ≤ 0 or p ≤ 0 (NaN included) yield 0 and p ≥ 1 yields n, with
// no draw.
func (bp *binomialPlan) binomial(rng source, n int64, p float64) int64 {
	if n <= 0 || !(p > 0) {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n != bp.n || p != bp.p {
		bp.setup(n, p)
	}
	var x int64
	if bp.btpe {
		x = bp.drawBTPE(rng)
	} else {
		x = bp.drawInversion(rng)
	}
	if bp.flip {
		return n - x
	}
	return x
}

func (bp *binomialPlan) setup(n int64, p float64) {
	*bp = binomialPlan{n: n, p: p, r: p}
	if p > 0.5 {
		bp.r, bp.flip = 1-p, true
	}
	r := bp.r
	q := 1 - r
	bp.q = q
	nf := float64(n)
	mean := nf * r
	if mean < binomialInversionMean {
		bp.qn = math.Exp(nf * math.Log1p(-r))
		bp.bound = n
		if b := mean + 10*math.Sqrt(mean*q+1); b < float64(n) {
			bp.bound = int64(b)
		}
		return
	}
	bp.btpe = true
	fm := (nf + 1) * r
	bp.m = int64(fm)
	if bp.m > n {
		bp.m = n
	}
	frac := fm - float64(bp.m) // fm − m; 0 once fm is an integer-valued float
	bp.nrq = mean * q
	bp.p1 = math.Floor(2.195*math.Sqrt(bp.nrq)-4.6*q) + 0.5
	bp.xl = 0.5 - bp.p1 // x_M − p1 − m, with x_M = m + ½
	bp.xr = 0.5 + bp.p1
	bp.c = 0.134 + 20.5/(15.3+float64(bp.m))
	// a = (fm − x_L)/(fm − x_L·r), with fm − x_L·r = r·(n − m + ½ + p1).
	a := (frac - bp.xl) / (r * (float64(n-bp.m) + 0.5 + bp.p1))
	bp.laml = a * (1 + a/2)
	// a = (x_R − fm)/(x_R·q).
	a = (bp.xr - frac) / ((float64(bp.m) + bp.xr) * q)
	bp.lamr = a * (1 + a/2)
	bp.p2 = bp.p1 * (1 + 2*bp.c)
	bp.p3 = bp.p2 + bp.c/bp.laml
	bp.p4 = bp.p3 + bp.c/bp.lamr
}

// drawInversion is the sequential search of the CDF from 0: the first
// uniform decides X = 0 against the memoised (1−r)ⁿ, and each further
// probability follows from the last by the pmf's ratio.
func (bp *binomialPlan) drawInversion(rng source) int64 {
	n, r, q := bp.n, bp.r, bp.q
	for {
		u := rng.Float64()
		px := bp.qn
		var x int64
		for u > px {
			x++
			if x > bp.bound {
				break
			}
			u -= px
			px *= float64(n-x+1) * r / (float64(x) * q)
		}
		if x <= bp.bound {
			return x
		}
	}
}

// drawBTPE is BTPE's acceptance–rejection loop (steps 1–6 of the paper),
// with every abscissa an offset d from the mode m.
func (bp *binomialPlan) drawBTPE(rng source) int64 {
	n, m, r, q := bp.n, bp.m, bp.r, bp.q
	for {
		u := rng.Float64() * bp.p4
		v := rng.Float64()
		var d int64
		switch {
		case u <= bp.p1: // triangle: accept at once
			return m + int64(math.Floor(0.5-bp.p1*v+u))
		case u <= bp.p2: // parallelograms
			x := bp.xl + (u-bp.p1)/bp.c
			v = v*bp.c + 1 - math.Abs(0.5-x)/bp.p1
			if v > 1 {
				continue
			}
			d = int64(math.Floor(x))
		case u <= bp.p3: // left exponential tail
			if v == 0 {
				continue
			}
			x := math.Floor(bp.xl + math.Log(v)/bp.laml)
			if x < -float64(m) {
				continue
			}
			d = int64(x)
			v *= (u - bp.p2) * bp.laml
		default: // right exponential tail
			if v == 0 {
				continue
			}
			x := math.Floor(bp.xr - math.Log(v)/bp.lamr)
			if x > float64(n-m) {
				continue
			}
			d = int64(x)
			v *= (u - bp.p3) * bp.lamr
		}
		y := m + d
		if y < 0 || y > n {
			continue
		}
		k := d
		if k < 0 {
			k = -k
		}
		kf := float64(k)
		if k <= 20 || kf >= bp.nrq/2-1 {
			// Explicit f(y)/f(m) by the pmf's ratio recurrence.
			s := r / q
			f := 1.0
			for i := m + 1; i <= y; i++ {
				f *= s * (float64(n-i) + 1) / float64(i)
			}
			for i := y + 1; i <= m; i++ {
				f /= s * (float64(n-i) + 1) / float64(i)
			}
			if v <= f {
				return y
			}
			continue
		}
		// Squeeze on log f(y)/f(m), then log f(y)/f(m) itself by
		// Stirling's series: with f1 = m+1, z = n−m+1, x1 = y+1 and
		// w = n−y+1 it is (m+½)·ln(f1/x1) + (n−m+½)·ln(z/w) +
		// (y−m)·ln(w·r/(x1·q)) + φ(f1) + φ(z) − φ(x1) − φ(w).
		rho := (kf / bp.nrq) * ((kf*(kf/3+0.625)+1.0/6)/bp.nrq + 0.5)
		t := -kf * kf / (2 * bp.nrq)
		A := math.Log(v)
		if A < t-rho {
			return y
		}
		if A > t+rho {
			continue
		}
		x1 := float64(y) + 1
		f1 := float64(m) + 1
		z := float64(n-m) + 1
		w := float64(n-y) + 1
		bound := (float64(m)+0.5)*math.Log1p(float64(m-y)/x1) +
			(float64(n-m)+0.5)*math.Log1p(float64(y-m)/w) +
			float64(y-m)*math.Log(w*r/(x1*q)) +
			stirlingTail(f1) + stirlingTail(z) - stirlingTail(x1) - stirlingTail(w)
		if A <= bound {
			return y
		}
	}
}

// stirlingTail is φ(x) = ln Γ(x) − (x−½)·ln x + x − ½·ln 2π, truncated after
// its fifth term: 1/(12x) − 1/(360x³) + 1/(1260x⁵) − 1/(1680x⁷) + 1/(1188x⁹).
func stirlingTail(x float64) float64 {
	x2 := x * x
	return (13860 - (462-(132-(99-140/x2)/x2)/x2)/x2) / x / 166320
}
