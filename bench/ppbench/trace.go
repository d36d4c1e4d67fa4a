package main

import (
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark: an op (Parent = -1) or
// a call into a layer's public function made while running that op. Spans
// are recorded from the benchmark's own code only; nothing inside the
// program under test is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Alloc is the process's heap-allocation delta over the span. Where
	// other goroutines run concurrently (the serve workload) it includes
	// their allocations too.
	Alloc uint64 `json:"alloc_bytes"`

	allocStart uint64
}

// tracer keeps spans and named samples in memory until the run ends. A nil
// *tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}}
}

// heapAllocs reads the cumulative heap-allocation counter without stopping
// the world (runtime.ReadMemStats would).
func heapAllocs() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op, parent int, name string) int {
	if t == nil {
		return -1
	}
	layer := "op"
	if parent >= 0 {
		layer, _, _ = strings.Cut(name, ".")
	}
	a := heapAllocs()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: now, allocStart: a})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	a := heapAllocs()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = now
	s.Alloc = a - s.allocStart
}

// observe appends a named sample (a count or a server-side timing).
func (t *tracer) observe(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// opCtx is what an op body sees: the tracer and its own op span.
type opCtx struct {
	tr   *tracer
	op   int
	span int
}

// call runs f as a child span of the op, named "<layer>.<function>".
func (c *opCtx) call(name string, f func() error) error {
	id := c.tr.begin(c.op, c.span, name)
	err := f()
	c.tr.end(id)
	return err
}

// count records a per-op quantity for the per-layer summary.
func (c *opCtx) count(name string, v float64) { c.tr.observe(name, v) }

// selfTimes returns every span's self time: its duration minus the part of
// its interval covered by its direct children. Children may overlap each
// other (concurrent calls), so coverage is the length of their union,
// clipped to the parent's interval.
func selfTimes(spans []span) []int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within
// [start, end].
func covered(start, end int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, start), min(k.End, end)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// layerStat summarises one layer's spans.
type layerStat struct {
	Calls       int     `json:"calls"`
	SelfMs      float64 `json:"self_ms"`
	TotalMs     float64 `json:"total_ms"`
	SelfAllocMB float64 `json:"self_alloc_mb"`
}

// spanSummary is the per-layer view of a traced run.
type spanSummary struct {
	Ops int `json:"ops"`
	// Coverage is the share of op wall time covered by layer spans.
	Coverage float64               `json:"coverage"`
	Layers   map[string]*layerStat `json:"layers"`
	// selfNs and allocs are keyed by span name, for the per-layer metrics.
	selfNs  map[string]int64
	wallNs  map[string]int64
	allocs  map[string]uint64
	opsWall int64
}

func summarise(spans []span) *spanSummary {
	self := selfTimes(spans)
	sum := &spanSummary{Layers: map[string]*layerStat{}, selfNs: map[string]int64{},
		wallNs: map[string]int64{}, allocs: map[string]uint64{}}
	childAlloc := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childAlloc[s.Parent] += s.Alloc
		}
	}
	var covered int64
	for i, s := range spans {
		dur := s.End - s.Start
		if s.Parent < 0 {
			sum.Ops++
			sum.opsWall += dur
			covered += dur - self[i]
		}
		ls := sum.Layers[s.Layer]
		if ls == nil {
			ls = &layerStat{}
			sum.Layers[s.Layer] = ls
		}
		ls.Calls++
		ls.SelfMs += float64(self[i]) / 1e6
		ls.TotalMs += float64(dur) / 1e6
		if s.Alloc > childAlloc[i] {
			ls.SelfAllocMB += float64(s.Alloc-childAlloc[i]) / 1e6
		}
		sum.selfNs[s.Name] += self[i]
		sum.wallNs[s.Name] += dur
		sum.allocs[s.Name] += s.Alloc
	}
	if sum.opsWall > 0 {
		sum.Coverage = float64(covered) / float64(sum.opsWall)
	}
	return sum
}
