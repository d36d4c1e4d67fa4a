package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// minTail is how many samples must lie beyond a reported percentile: a
// timing is reported at the highest percentile that still has ten samples
// above it, so p90 needs at least 100 samples.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by nearest rank. It
// refuses when fewer than minTail samples lie beyond that rank, because such
// a tail is too thin to tell a regression from noise.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples has only %d beyond it (need %d)",
			p*100, n, beyond, minTail)
	}
	s := sorted(xs)
	return s[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It has no tail requirement: it summarises a handful of
// repeated set-ups or runs, not a latency distribution.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so a spread computed here matches one computed from the printed values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// formatValue prints v with six significant digits, switching to exponent
// form for very large or very small magnitudes, so no value underflows to
// a row of zeros.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
