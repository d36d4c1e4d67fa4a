package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// TestCacheHitDoesNotWaitForSkeletonWrite pins that no Convert waits for
// a skeleton write, the converting call included: while the writer is held
// inside the first skeleton file write, the converting Convert has returned
// and a second Convert of the program returns the complete entry. After the
// release and Close there was one write, and the state dir holds its file.
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
	type converted struct {
		res    *convert.Result
		report *convert.OptReport
		err    error
	}
	convertAsync := func() <-chan converted {
		ch := make(chan converted, 1)
		go func() {
			res, report, _, err := c.Convert(prog, true)
			ch <- converted{res, report, err}
		}()
		return ch
	}
	first := convertAsync()
	<-entered
	for i, ch := range []<-chan converted{first, convertAsync()} {
		select {
		case got := <-ch:
			if got.err != nil || got.res == nil || got.res.Protocol == nil || got.report == nil {
				t.Errorf("Convert call %d returned an incomplete entry: %+v", i+1, got)
			}
		case <-time.After(10 * time.Second):
			close(release)
			t.Fatalf("Convert call %d waited for the skeleton write", i+1)
		}
	}
	close(release)
	c.Close()
	if n := writes.Load(); n != 1 {
		t.Fatalf("%d skeleton writes, want 1", n)
	}
	if names, err := os.ReadDir(dir); err != nil || len(names) != 1 {
		t.Fatalf("state dir holds %d files (%v), want the one skeleton", len(names), err)
	}
}

// counterPrograms returns n variants of cacheTestSrc under distinct cache
// keys: variant i drains register r<i> into z.
func counterPrograms(tb testing.TB, n int) []*popprog.Program {
	tb.Helper()
	progs := make([]*popprog.Program, n)
	for i := range progs {
		reg := fmt.Sprintf("r%d", i)
		src := strings.ReplaceAll(cacheTestSrc, "a, b", reg+", z")
		src = strings.ReplaceAll(src, "move a ->", "move "+reg+" ->")
		src = strings.ReplaceAll(src, "detect a", "detect "+reg)
		src = strings.ReplaceAll(src, "-> b", "-> z")
		p, err := popprog.Parse(src)
		if err != nil {
			tb.Fatalf("prog %d: %v", i, err)
		}
		progs[i] = p
	}
	return progs
}

// skeletonFiles returns the names of the files in dir, sorted: the
// skeletons, and any temporary file a write left behind.
func skeletonFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// cachedSkeletonFiles returns the skeleton file names of the completed
// conversions c holds, sorted.
func cachedSkeletonFiles(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var names []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		it := el.Value.(*cacheItem)
		if it.entry.res != nil {
			names = append(names, skeletonFile(it.key))
		}
	}
	sort.Strings(names)
	return names
}

// TestCacheEvictedSkeletonStaysRemoved pins the order of one key's
// skeleton write and removal: with the first program's write held, a
// second program evicts it from a one-entry cache. After the release and
// Close, the evicted program has no file, which a write landing after the
// removal would leave behind, and the live program has its file.
func TestCacheEvictedSkeletonStaysRemoved(t *testing.T) {
	progs := counterPrograms(t, 2)
	dir := t.TempDir()
	c := NewCache(1)
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
		_, _, _, err := c.Convert(progs[0], false)
		first <- err
	}()
	<-entered
	_, _, live, err := c.Convert(progs[1], false)
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	c.Close()
	if got, want := skeletonFiles(t, dir), []string{skeletonFile(live)}; !slices.Equal(got, want) {
		t.Fatalf("state dir holds %v, want only the live entry's %v", got, want)
	}
}

// TestCacheCloseDrainsWriter pins Close: skeleton writes queued behind a
// held write are on disk when Close returns, and the writer has exited.
func TestCacheCloseDrainsWriter(t *testing.T) {
	progs := counterPrograms(t, 3)
	dir := t.TempDir()
	c := NewCache(4)
	var writes atomic.Int32
	c.writeFile = func(path string, data []byte) error {
		if writes.Add(1) == 1 {
			// Hold the first write until Close has begun.
			for {
				c.mu.Lock()
				closing := c.closing
				c.mu.Unlock()
				if closing {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		return atomicfile.Write(path, data)
	}
	if err := c.Persist(dir); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, p := range progs {
		_, _, key, err := c.Convert(p, false)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, skeletonFile(key))
	}
	c.Close()
	select {
	case <-c.done:
	default:
		t.Fatal("the skeleton writer is still running after Close")
	}
	sort.Strings(want)
	if got := skeletonFiles(t, dir); !slices.Equal(got, want) {
		t.Fatalf("after Close the state dir holds %v, want %v", got, want)
	}
}

// TestCacheSkeletonFilesMatchEntries converts overlapping sets of programs
// from several goroutines into a two-entry cache, so entries are evicted
// while converted, while queued and while written. After Close, the files
// on disk are exactly the cached conversions'. Run under -race it also
// checks the writer against concurrent Converts.
func TestCacheSkeletonFilesMatchEntries(t *testing.T) {
	progs := counterPrograms(t, 6)
	dir := t.TempDir()
	c := NewCache(2)
	if err := c.Persist(dir); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(progs); i++ {
				if _, _, _, err := c.Convert(progs[(g+i*(g+1))%len(progs)], g%2 == 0); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	c.Close()
	want := cachedSkeletonFiles(c)
	if len(want) != 2 {
		t.Fatalf("cache holds %d completed conversions, want 2", len(want))
	}
	if got := skeletonFiles(t, dir); !slices.Equal(got, want) {
		t.Fatalf("after Close the state dir holds %v, want the cached entries' %v", got, want)
	}
}

// TestCacheEviction pins the LRU bound: distinct programs beyond the
// capacity evict the least recently used entry, and a re-request of the
// evicted program converts again.
func TestCacheEviction(t *testing.T) {
	met := obs.Enable()
	defer obs.Disable()

	progs := counterPrograms(t, 3)
	c := NewCache(2)
	for _, p := range progs { // fill: r0, r1, then r2 evicts r0
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
