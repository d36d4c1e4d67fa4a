package simulate

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval of the mean (1.96·σ/√n); zero for n < 2.
	CI95 float64
}

// Summarise computes descriptive statistics of the sample.
func Summarise(sample []float64) Summary {
	s := Summary{N: len(sample)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	s.Min = sorted[0]
	s.Max = sorted[len(sorted)-1]
	if s.N%2 == 1 {
		s.Median = sorted[s.N/2]
	} else {
		s.Median = (sorted[s.N/2-1] + sorted[s.N/2]) / 2
	}
	var sum float64
	for _, v := range sample {
		sum += v
	}
	s.Mean = sum / float64(s.N)
	if s.N >= 2 {
		var ss float64
		for _, v := range sample {
			d := v - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders the summary compactly: "mean ± ci [min..max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.1f ± %.1f [%.1f..%.1f] (n=%d)", s.Mean, s.CI95, s.Min, s.Max, s.N)
}
