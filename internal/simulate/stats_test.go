package simulate

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummariseBasics(t *testing.T) {
	s := Summarise([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of 1..5 is sqrt(2.5).
	if math.Abs(s.StdDev-math.Sqrt(2.5)) > 1e-12 {
		t.Fatalf("stddev %v", s.StdDev)
	}
	if s.CI95 <= 0 {
		t.Fatalf("CI95 %v", s.CI95)
	}
}

func TestSummariseEvenMedian(t *testing.T) {
	s := Summarise([]float64{1, 2, 3, 10})
	if s.Median != 2.5 {
		t.Fatalf("median %v, want 2.5", s.Median)
	}
}

func TestSummariseDegenerate(t *testing.T) {
	if s := Summarise(nil); s.N != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	s := Summarise([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.StdDev != 0 || s.CI95 != 0 || s.Median != 7 {
		t.Fatalf("singleton summary %+v", s)
	}
}

func TestSummariseDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarise(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestSummariseString(t *testing.T) {
	if got := Summarise([]float64{2, 2, 2}).String(); !strings.Contains(got, "n=3") {
		t.Fatalf("String = %q", got)
	}
}

// Property: min ≤ median ≤ max and min ≤ mean ≤ max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		sample := make([]float64, len(raw))
		for i, v := range raw {
			sample[i] = float64(v)
		}
		s := Summarise(sample)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureConvergenceSamples(t *testing.T) {
	p := buildEpidemic(t)
	_, samples, err := MeasureConvergenceWithSamples(p, []int64{1, 9}, true, 5, 3, Options{
		MaxSteps: 10_000_000, QuiescencePeriod: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 5 {
		t.Fatalf("%d samples", len(samples))
	}
	s := Summarise(samples)
	if s.Mean <= 0 {
		t.Fatalf("degenerate mean %v", s.Mean)
	}
	if _, _, err := MeasureConvergenceWithSamples(p, []int64{1, 1}, true, 0, 1, Options{}); err == nil {
		t.Fatal("accepted runs = 0")
	}
}
