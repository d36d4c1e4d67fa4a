package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/convert"
	"repro/internal/obs"
	"repro/internal/popprog"
)

// cacheTestSrc is a deliberately tiny program so its §7 conversion runs in
// milliseconds; the cache semantics it exercises are size-independent.
const cacheTestSrc = `program counter
registers a, b

proc Main {
  while detect a {
    move a -> b
  }
  of true
}
`

// cacheTestSrcReformatted is the same program modulo formatting and
// comments: it must hash to the same cache key.
const cacheTestSrcReformatted = `program counter

registers    a,   b

# drains a into b, then accepts
proc Main {
	while detect a {
		move a -> b
	}
	of true
}
`

// TestCacheDifferential is the differential cache test: a cold-miss
// submission and a warm-hit submission of the same program (under different
// formatting) must return byte-identical result documents — including the
// per-run samples, i.e. identical RNG traces — while the obs counters show
// exactly one conversion, one miss, and one hit. The zero-extra-conversions
// assertion is the acceptance criterion: the warm path performs no §7 work.
func TestCacheDifferential(t *testing.T) {
	met := obs.Enable()
	defer obs.Disable()

	s, ts := newTestServer(t, Config{Workers: 1})
	submit := func(src string) *Job {
		j, err := s.Submit(JobSpec{Kind: KindSimulate, Program: src,
			Input: []int64{9}, Runs: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, ts.URL, j.ID)
		if done.Status != StatusDone {
			t.Fatalf("job %s finished %s (%s)", j.ID, done.Status, done.Error)
		}
		return done
	}

	cold := submit(cacheTestSrc)
	if n := met.Serve().Conversions.Load(); n != 1 {
		t.Fatalf("cold submission ran %d conversions, want 1", n)
	}
	if h, m := met.Serve().CacheHits.Load(), met.Serve().CacheMisses.Load(); h != 0 || m != 1 {
		t.Fatalf("cold submission: hits %d misses %d, want 0/1", h, m)
	}

	warm := submit(cacheTestSrcReformatted)
	if n := met.Serve().Conversions.Load(); n != 1 {
		t.Fatalf("warm submission ran a conversion (total %d), want the hit path to skip §7 entirely", n)
	}
	if h, m := met.Serve().CacheHits.Load(), met.Serve().CacheMisses.Load(); h != 1 || m != 1 {
		t.Fatalf("warm submission: hits %d misses %d, want 1/1", h, m)
	}

	if cold.CacheKey == "" || cold.CacheKey != warm.CacheKey {
		t.Fatalf("cache keys differ: %q vs %q", cold.CacheKey, warm.CacheKey)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Fatalf("cold and warm results differ:\n%s\nvs\n%s", cold.Result, warm.Result)
	}
	// The samples array inside the byte-identical documents is the per-run
	// RNG trace; make its presence explicit rather than vacuous.
	var res simulateResult
	if err := json.Unmarshal(cold.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) != 4 || res.Convert == nil {
		t.Fatalf("result document missing samples or convert info: %s", cold.Result)
	}
}

// TestCacheOptimize pins the shrink-pipeline cache path: optimized
// conversions live under their own ":opt"-suffixed key (so they never alias
// the plain conversion), a warm hit returns the byte-identical result
// document including the stored OptReport, and the report shows an actual
// shrink.
func TestCacheOptimize(t *testing.T) {
	met := obs.Enable()
	defer obs.Disable()

	s, ts := newTestServer(t, Config{Workers: 1})
	submit := func(spec JobSpec) *Job {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, ts.URL, j.ID)
		if done.Status != StatusDone {
			t.Fatalf("job %s finished %s (%s)", j.ID, done.Status, done.Error)
		}
		return done
	}
	base := JobSpec{Kind: KindSimulate, Input: []int64{9}, Runs: 2, Seed: 3}

	plainSpec := base
	plainSpec.Program = cacheTestSrc
	plain := submit(plainSpec)

	optSpec := plainSpec
	optSpec.Optimize = true
	cold := submit(optSpec)
	if cold.CacheKey != plain.CacheKey+":opt" {
		t.Fatalf("optimized key %q does not extend plain key %q", cold.CacheKey, plain.CacheKey)
	}
	if n := met.Serve().Conversions.Load(); n != 2 {
		t.Fatalf("plain + optimized submissions ran %d conversions, want 2", n)
	}

	warmSpec := base
	warmSpec.Program = cacheTestSrcReformatted
	warmSpec.Optimize = true
	warm := submit(warmSpec)
	if n := met.Serve().Conversions.Load(); n != 2 {
		t.Fatalf("warm optimized submission reconverted (total %d)", n)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Fatalf("cold and warm optimized results differ:\n%s\nvs\n%s", cold.Result, warm.Result)
	}

	var res simulateResult
	if err := json.Unmarshal(warm.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Convert == nil || res.Convert.Pipeline != convert.PipelineTag || res.Convert.Opt == nil {
		t.Fatalf("optimized result lacks pipeline accounting: %s", warm.Result)
	}
	r := res.Convert.Opt
	if r.After.States >= r.Before.States || r.After.Transitions < 0 {
		t.Fatalf("report shows no shrink: before %+v after %+v", r.Before, r.After)
	}

	var plainRes simulateResult
	if err := json.Unmarshal(plain.Result, &plainRes); err != nil {
		t.Fatal(err)
	}
	if plainRes.Convert == nil || plainRes.Convert.Pipeline != "" || plainRes.Convert.Opt != nil {
		t.Fatalf("plain result carries pipeline accounting: %s", plain.Result)
	}
}

// TestOptimizeSpecValidation pins that optimize is rejected for protocol
// targets: there is no §7 conversion to shrink.
func TestOptimizeSpecValidation(t *testing.T) {
	bad := JobSpec{Kind: KindSimulate, Target: "majority", Input: []int64{3, 2}, Optimize: true}
	if err := bad.Validate(); err == nil {
		t.Fatal("optimize on a protocol target validated")
	}
	ok := JobSpec{Kind: KindSimulate, Target: "figure1", Input: []int64{5}, Optimize: true}
	if err := ok.Validate(); err != nil {
		t.Fatalf("optimize on figure1 rejected: %v", err)
	}
}

// TestCacheSingleflight pins that concurrent conversions of the same
// program share one §7 run.
func TestCacheSingleflight(t *testing.T) {
	met := obs.Enable()
	defer obs.Disable()

	prog, err := popprog.Parse(cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := c.Convert(prog, false); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := met.Serve().Conversions.Load(); n != 1 {
		t.Fatalf("%d conversions for 8 concurrent requests, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheHitDoesNotWaitForSkeletonWrite pins that a conversion is
// persisted after its entry's sync.Once returns: while the converting call
// is held inside the skeleton file write, a second Convert of the same
// program returns the complete entry instead of waiting for the write, and
// only the converting call writes.
func TestCacheHitDoesNotWaitForSkeletonWrite(t *testing.T) {
	prog, err := popprog.Parse(cacheTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := NewCache(4)
	var writes atomic.Int32
	entered, release := make(chan struct{}), make(chan struct{})
	c.writeFile = func(path string, data []byte) error {
		if writes.Add(1) == 1 {
			close(entered)
			<-release
		}
		return atomicfile.Write(path, data)
	}
	if err := c.Persist(dir); err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, _, _, err := c.Convert(prog, true)
		first <- err
	}()
	<-entered
	type converted struct {
		res    *convert.Result
		report *convert.OptReport
		err    error
	}
	second := make(chan converted, 1)
	go func() {
		res, report, _, err := c.Convert(prog, true)
		second <- converted{res, report, err}
	}()
	var got converted
	select {
	case got = <-second:
	case <-time.After(10 * time.Second):
		close(release)
		<-first
		t.Fatal("a second Convert of the program waited for the skeleton write")
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if got.err != nil || got.res == nil || got.res.Protocol == nil || got.report == nil {
		t.Fatalf("second Convert returned an incomplete entry: %+v", got)
	}
	if n := writes.Load(); n != 1 {
		t.Fatalf("%d skeleton writes, want 1", n)
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 1 {
		t.Fatalf("state dir holds %d files (%v), want the one skeleton", len(names), err)
	}
}

// TestCacheEviction pins the LRU bound: distinct programs beyond the
// capacity evict the least recently used entry, and a re-request of the
// evicted program converts again.
func TestCacheEviction(t *testing.T) {
	met := obs.Enable()
	defer obs.Disable()

	progs := make([]*popprog.Program, 3)
	for i, reg := range []string{"a", "b", "c"} {
		src := strings.ReplaceAll(cacheTestSrc, "a, b", reg+", z")
		src = strings.ReplaceAll(src, "move a ->", "move "+reg+" ->")
		src = strings.ReplaceAll(src, "detect a", "detect "+reg)
		src = strings.ReplaceAll(src, "-> b", "-> z")
		p, err := popprog.Parse(src)
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		progs[i] = p
	}
	c := NewCache(2)
	for _, p := range progs { // fill: a, b, then c evicts a
		if _, _, _, err := c.Convert(p, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := met.Serve().CacheEvictions.Load(); n != 1 {
		t.Fatalf("%d evictions, want 1", n)
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	before := met.Serve().Conversions.Load()
	if _, _, _, err := c.Convert(progs[0], false); err != nil { // evicted: converts again
		t.Fatal(err)
	}
	if after := met.Serve().Conversions.Load(); after != before+1 {
		t.Fatalf("re-requesting the evicted program did not reconvert (%d → %d)", before, after)
	}
}

// TestCachePersistRestart is the restart differential test for the
// persisted compiled-protocol cache: a server with a StateDir writes every
// completed conversion through to disk, and a NEW server process booted on
// the same StateDir serves the same program (under different formatting)
// byte-identically with ZERO conversions — the warm-from-disk path does no
// §7 work at all. Both the plain and the ":opt" pipeline keys are covered.
func TestCachePersistRestart(t *testing.T) {
	dir := t.TempDir()
	base := JobSpec{Kind: KindSimulate, Input: []int64{9}, Runs: 3, Seed: 7}

	submit := func(s *Server, baseURL string, spec JobSpec) *Job {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := waitTerminal(t, baseURL, j.ID)
		if done.Status != StatusDone {
			t.Fatalf("job %s finished %s (%s)", j.ID, done.Status, done.Error)
		}
		return done
	}

	// First life: cold conversions, written through to StateDir/convert.
	met := obs.Enable()
	s1, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	plainSpec := base
	plainSpec.Program = cacheTestSrc
	optSpec := plainSpec
	optSpec.Optimize = true
	coldPlain := submit(s1, ts1.URL, plainSpec)
	coldOpt := submit(s1, ts1.URL, optSpec)
	if n := met.Serve().Conversions.Load(); n != 2 {
		t.Fatalf("first server ran %d conversions, want 2", n)
	}
	ts1.Close()
	s1.Close()
	obs.Disable()

	// The skeleton files must exist on disk under their key-derived names.
	for _, key := range []string{coldPlain.CacheKey, coldOpt.CacheKey} {
		path := filepath.Join(dir, "convert", skeletonFile(key))
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("no skeleton persisted for key %q: %v", key, err)
		}
	}

	// Second life: same StateDir, fresh process. The boot-time Persist load
	// must leave the cache warm, so the reformatted program converts zero
	// times and both result documents come back byte-identical.
	met = obs.Enable()
	defer obs.Disable()
	s2, ts2 := newTestServer(t, Config{Workers: 1, StateDir: dir})
	warmSpec := base
	warmSpec.Program = cacheTestSrcReformatted
	warmPlain := submit(s2, ts2.URL, warmSpec)
	warmSpec.Optimize = true
	warmOpt := submit(s2, ts2.URL, warmSpec)

	if n := met.Serve().Conversions.Load(); n != 0 {
		t.Fatalf("restarted server ran %d conversions, want 0 (disk-warm hits only)", n)
	}
	if h, m := met.Serve().CacheHits.Load(), met.Serve().CacheMisses.Load(); h != 2 || m != 0 {
		t.Fatalf("restarted server: hits %d misses %d, want 2/0", h, m)
	}
	if coldPlain.CacheKey != warmPlain.CacheKey || coldOpt.CacheKey != warmOpt.CacheKey {
		t.Fatalf("cache keys changed across restart: %q/%q vs %q/%q",
			coldPlain.CacheKey, coldOpt.CacheKey, warmPlain.CacheKey, warmOpt.CacheKey)
	}
	if !bytes.Equal(coldPlain.Result, warmPlain.Result) {
		t.Fatalf("plain results differ across restart:\n%s\nvs\n%s", coldPlain.Result, warmPlain.Result)
	}
	if !bytes.Equal(coldOpt.Result, warmOpt.Result) {
		t.Fatalf("optimized results differ across restart:\n%s\nvs\n%s", coldOpt.Result, warmOpt.Result)
	}
	// The optimized warm hit must still carry the pipeline accounting, i.e.
	// the OptReport survived the disk round trip inside the skeleton.
	var res simulateResult
	if err := json.Unmarshal(warmOpt.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Convert == nil || res.Convert.Pipeline != convert.PipelineTag || res.Convert.Opt == nil {
		t.Fatalf("warm optimized result lost pipeline accounting: %s", warmOpt.Result)
	}
}
