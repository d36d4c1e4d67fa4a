// Package obs is the repository's telemetry layer: allocation-free atomic
// counters, gauges, histogram-ish distributions, and small per-index vectors,
// grouped into one metric set per hot subsystem (scheduler, simulation
// runner, exploration engine, server, shrink pipeline). The live set is its
// own snapshot: every instrument marshals its current value, each field's
// json tag is its name, and a group that observed nothing is left out.
//
// Telemetry is off by default and costs (almost) nothing when off: the
// per-subsystem group accessors (Sched, Sim, Explore) return nil while
// disabled, instrumented sites capture the group once at construction and
// guard each observation block with a single nil check, and every individual
// instrument method is additionally safe on a nil receiver. Enabling
// telemetry (Enable, normally via the binaries' -metrics /
// -metrics-interval / -pprof flags) swaps in a live Metrics whose
// instruments are plain atomics — no locks, no maps, no allocation on the
// observation path — so the enabled cost is one uncontended atomic RMW per
// counter observation, and two (sum and bucket) per histogram observation
// that sets no new minimum or maximum.
//
// Telemetry is strictly read-only with respect to the computations it
// observes: no instrument feeds back into scheduling, sampling, or
// exploration order, so every experiment's output is byte-identical with
// telemetry on and off (the differential test in internal/experiments pins
// this).
package obs

import (
	"encoding/json"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; all methods are nil-safe no-ops so disabled telemetry costs
// one branch.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds delta. A zero delta returns without touching the atomic.
func (c *Counter) Add(delta int64) {
	if c == nil || delta == 0 {
		return
	}
	c.v.Add(delta)
}

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MarshalJSON writes the value.
func (c *Counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

// Gauge is an atomic last-value-wins gauge with a monotone-max variant.
// The zero value is ready to use; methods are nil-safe no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MarshalJSON writes the value.
func (g *Gauge) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, g.Load(), 10), nil
}

// histBuckets is the number of log2 buckets a Hist tracks: bucket 0 counts
// observations of 0, bucket i ≥ 1 counts observations v with
// bits.Len64(v) == i, i.e. v ∈ [2^(i−1), 2^i). 41 buckets cover values up to
// 2^40 (≈ 18 minutes in nanoseconds); larger values clamp into the last.
const histBuckets = 41

// Hist is a histogram-ish distribution tracker: exact count/sum/min/max plus
// coarse power-of-two buckets. It doubles as a timer (observe elapsed
// nanoseconds). Negative observations clamp to 0 so min/max stay exact under
// the unset-sentinel encoding. The count is not stored: every observation
// lands in exactly one bucket, so Count and MarshalJSON sum the buckets. The
// zero value is ready to use; methods are nil-safe no-ops.
type Hist struct {
	sum      atomic.Int64
	max      atomic.Int64
	minPlus1 atomic.Int64 // min+1; 0 means no observation yet
	buckets  [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.minPlus1.Load()
		if cur != 0 && v+1 >= cur || h.minPlus1.CompareAndSwap(cur, v+1) {
			break
		}
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
}

// Count returns the number of observations, the sum of the buckets (0 on a
// nil receiver).
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Hist) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// MarshalJSON writes the distribution as count, sum, min, max, mean and the
// log2 buckets with trailing empty buckets trimmed. Concurrent Observes may
// land between field reads; each field stays exact with respect to the
// observations it has absorbed, and count always equals the sum of the
// written buckets.
func (h *Hist) MarshalJSON() ([]byte, error) {
	var s struct {
		Count int64   `json:"count"`
		Sum   int64   `json:"sum"`
		Min   int64   `json:"min"`
		Max   int64   `json:"max"`
		Mean  float64 `json:"mean"`
		// Log2Buckets[i] counts observations of bit-length i (bucket 0 is
		// the value 0, bucket i ≥ 1 is [2^(i−1), 2^i)).
		Log2Buckets []int64 `json:"log2_buckets,omitempty"`
	}
	last := -1
	var raw [histBuckets]int64
	for i := range h.buckets {
		raw[i] = h.buckets[i].Load()
		s.Count += raw[i]
		if raw[i] != 0 {
			last = i
		}
	}
	s.Log2Buckets = raw[:last+1]
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	if mp := h.minPlus1.Load(); mp > 0 {
		s.Min = mp - 1
	}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	return json.Marshal(s)
}

// VecWidth is the number of independent slots a Vec tracks. It matches the
// exploration interner's shard count; indices beyond it wrap, which keeps
// Add allocation-free for any worker count.
const VecWidth = 64

// Vec is a fixed-width vector of counters indexed by a small integer id
// (worker index, interner shard). The zero value is ready to use; methods
// are nil-safe no-ops.
type Vec struct{ slots [VecWidth]Counter }

// Add adds delta to slot i (mod VecWidth).
func (v *Vec) Add(i int, delta int64) {
	if v == nil {
		return
	}
	v.slots[uint(i)%VecWidth].Add(delta)
}

// Load returns the value of slot i (mod VecWidth); 0 on a nil receiver.
func (v *Vec) Load(i int) int64 {
	if v == nil {
		return 0
	}
	return v.slots[uint(i)%VecWidth].Load()
}

// MarshalJSON writes the per-slot values with trailing zero slots trimmed,
// and null when every slot is zero.
func (v *Vec) MarshalJSON() ([]byte, error) {
	last := -1
	var raw [VecWidth]int64
	for i := range v.slots {
		raw[i] = v.slots[i].Load()
		if raw[i] != 0 {
			last = i
		}
	}
	if last < 0 {
		return []byte("null"), nil
	}
	return json.Marshal(raw[:last+1])
}
