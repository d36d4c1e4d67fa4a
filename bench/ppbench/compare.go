package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Verdicts of one (workload, metric) comparison.
const (
	verdictImproved   = "improved"
	verdictNoWorse    = "no-worse"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// comparison is baseline runs A against changed runs B for one metric.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	pairs, wins    int
	// worse is how much B's median is worse than A's, as a share of A's
	// median (negative when B is better).
	worse   float64
	verdict string
}

// compareMetric applies the benchmark's rule to one metric:
//
//   - improved: B wins at least nine tenths of the pairs (A[i], B[i]),
//     ties counting for neither, and the medians differ in B's favour by
//     more than A's own quartile spread;
//   - unresolved: otherwise, when either side's quartile spread is wider
//     than the bound (as a share of its median), unless every B run is
//     better than every A run, or every B run is worse than every A run and
//     the median is worse by more than the bound;
//   - regressed: B's median is worse than A's by more than the bound;
//   - no-worse: everything else.
func compareMetric(a, b []float64, d metricDef) comparison {
	sign := 1.0 // cost = sign·value: lower cost is better
	if d.Better == "higher" {
		sign = -1
	}
	c := comparison{}
	c.medA, c.medB = median(a), median(b)
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if sign*b[i] < sign*a[i] {
			c.wins++
		}
	}
	base := math.Abs(c.medA)
	if base == 0 {
		base = 1
	}
	c.worse = sign * (c.medB - c.medA) / base
	spread := math.Max(relSpread(c.q1A, c.q3A, c.medA), relSpread(c.q1B, c.q3B, c.medB))
	bestB, worstB := extremes(b, sign)
	bestA, worstA := extremes(a, sign)
	allBetter := worstB < bestA
	allWorse := bestB > worstA
	switch {
	case c.pairs > 0 && float64(c.wins) >= 0.9*float64(c.pairs) && sign*(c.medA-c.medB) > c.q3A-c.q1A:
		c.verdict = verdictImproved
	case spread > d.Bound && !allBetter && !(allWorse && c.worse > d.Bound):
		c.verdict = verdictUnresolved
	case c.worse > d.Bound:
		c.verdict = verdictRegressed
	default:
		c.verdict = verdictNoWorse
	}
	return c
}

func relSpread(q1, q3, med float64) float64 {
	if med == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// extremes returns the lowest and highest cost (sign·value) in xs.
func extremes(xs []float64, sign float64) (best, worst float64) {
	best, worst = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		best, worst = math.Min(best, sign*x), math.Max(worst, sign*x)
	}
	return best, worst
}

// runCompare implements `ppbench compare A.json… -- B.json…`: A are the
// baseline's run records, B the change's, in the order the runs were made
// (pairs are formed by position). It exits 1 when any pair regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	sep := -1
	for i, a := range args {
		if a == "--" {
			sep = i
			break
		}
	}
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: ppbench compare A.json… -- B.json…")
		return 2
	}
	a, err := loadRecords(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "ppbench compare:", err)
		return 1
	}
	b, err := loadRecords(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "ppbench compare:", err)
		return 1
	}
	names := map[string]bool{}
	for w := range a {
		if len(b[w]) > 0 {
			names[w] = true
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(stderr, "ppbench compare: no workload has records on both sides")
		return 1
	}
	order := make([]string, 0, len(names))
	for w := range names {
		order = append(order, w)
	}
	sort.Strings(order)

	code := 0
	fmt.Fprintf(stdout, "%-9s %-16s %-32s %-32s %9s %7s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B worse", "B wins", "verdict")
	for _, w := range order {
		ra, rb := a[w], b[w]
		for _, d := range endToEnd {
			c := compareMetric(metricSeries(ra, d.Name), metricSeries(rb, d.Name), d)
			if c.verdict == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(stdout, "%-9s %-16s %-32s %-32s %9s %3d/%-3d  %s (bound %g%%)\n",
				w, d.Name, spreadText(c.medA, c.q1A, c.q3A), spreadText(c.medB, c.q1B, c.q3B),
				formatValue(100*c.worse)+"%", c.wins, c.pairs, c.verdict, 100*d.Bound)
		}
		// Failures have a bound of zero: any B run failing more often than
		// every A run is a regression.
		fa, fb := failRatios(ra), failRatios(rb)
		_, worstA := extremes(fa, 1)
		_, worstB := extremes(fb, 1)
		v := verdictNoWorse
		if worstB > worstA {
			v = verdictRegressed
			code = 1
		}
		fmt.Fprintf(stdout, "%-9s %-16s %-32s %-32s %9s %7s  %s (bound +0)\n",
			w, "fail_ratio", formatValue(worstA)+" max", formatValue(worstB)+" max", "", "", v)
	}
	return code
}

func spreadText(med, q1, q3 float64) string {
	return fmt.Sprintf("%s [%s, %s]", formatValue(med), formatValue(q1), formatValue(q3))
}

// loadRecords reads run records and groups them by workload, in the order
// given.
func loadRecords(paths []string) (map[string][]*record, error) {
	out := map[string][]*record{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Workload == "" || r.EndToEnd == nil {
			return nil, fmt.Errorf("%s: not a ppbench run record", p)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

func metricSeries(rs []*record, name string) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		if m, ok := r.EndToEnd[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func failRatios(rs []*record) []float64 {
	xs := make([]float64, 0, len(rs))
	for _, r := range rs {
		xs = append(xs, float64(r.Result.Failed)/math.Max(1, float64(r.Result.Attempted)))
	}
	return xs
}
