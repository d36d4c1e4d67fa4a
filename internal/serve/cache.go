package serve

import (
	"container/list"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/obs"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// Cache is an LRU cache of §7 compile→convert results, keyed by the
// program's canonical hash (a content address over the canonical source
// rendering, so formatting and comments don't fragment the cache). A
// shrink-pipeline conversion is a different pure function of the program,
// so it lives under the ":opt"-suffixed key — plain and optimized results
// never alias — and the entry carries its OptReport, so a warm hit can
// report which pipeline produced the protocol it returned.
//
// Soundness: a hit must return exactly the protocol a fresh conversion
// would have built. The canonical hash is blind to original spellings of
// non-identifier names, but the compiler is not — names flow into converted
// state names — so the cache NEVER compiles the submitted AST. It always
// compiles the canonical re-rendering (Parse(WriteSource(prog))), which is
// idempotent under round-tripping; the determinism tests in
// internal/compile and internal/convert pin this contract. That makes the
// cached value a pure function of the key.
//
// Concurrency: entries carry a sync.Once, so concurrent submissions of the
// same program share one conversion (singleflight) instead of racing.
//
// Persistence: after Persist, one writer goroutine runs the skeleton file
// writes and removals that Convert queues (see writeSkeletons), so no
// Convert waits for fingerprinting, encoding or disk. Close drains it.
type Cache struct {
	mu  sync.Mutex
	max int
	ll  *list.List // front = most recently used; values are *cacheItem
	m   map[string]*list.Element
	// writeFile writes one skeleton file: atomicfile.Write, or a test's
	// stand-in that holds the write open.
	writeFile func(path string, data []byte) error

	// pending is the writer's queue of skeleton file operations (see
	// cacheSkeleton); queued wakes the writer. done is closed when the
	// writer exits, nil if Persist never started one. closing stops the
	// queueing, and the writer exits once pending is empty.
	pending []skeletonOp
	queued  sync.Cond
	done    chan struct{}
	closing bool
}

// skeletonOp is one queued skeleton file operation: write entry's skeleton
// under key, or remove key's file when entry is nil.
type skeletonOp struct {
	key   string
	entry *cacheEntry
}

type cacheItem struct {
	key   string
	entry *cacheEntry
}

type cacheEntry struct {
	once sync.Once
	// res holds only what a skeleton restores (see skeletonResult), so a
	// fresh entry and one restored from disk hold the same fields and the
	// cache retains no core protocol.
	res *convert.Result
	// report is the shrink pipeline's accounting; nil for plain conversions.
	report *convert.OptReport
	err    error
}

// NewCache returns a cache holding at most max conversions (min 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	c := &Cache{max: max, ll: list.New(), m: make(map[string]*list.Element), writeFile: atomicfile.Write}
	c.queued.L = &c.mu
	return c
}

// Convert returns the §7 conversion of prog, computing and caching it on
// first use. With optimize set it runs the shrink pipeline
// (convert.Optimize) instead and additionally returns its OptReport. The
// returned key is the program's canonical hash, ":opt"-suffixed for
// optimized conversions. The returned Result carries only Protocol,
// NumPointers and CoreStates.
func (c *Cache) Convert(prog *popprog.Program, optimize bool) (*convert.Result, *convert.OptReport, string, error) {
	key := prog.CanonicalHash()
	if optimize {
		key += ":opt"
	}
	met := obs.Serve()

	c.mu.Lock()
	var e *cacheEntry
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*cacheItem).entry
		if met != nil {
			met.CacheHits.Inc()
		}
	} else {
		e = &cacheEntry{}
		c.m[key] = c.ll.PushFront(&cacheItem{key: key, entry: e})
		for c.ll.Len() > c.max {
			oldest := c.ll.Back()
			c.ll.Remove(oldest)
			evicted := oldest.Value.(*cacheItem).key
			delete(c.m, evicted)
			c.enqueue(skeletonOp{key: evicted})
			if met != nil {
				met.CacheEvictions.Inc()
			}
		}
		if met != nil {
			met.CacheMisses.Inc()
		}
	}
	c.mu.Unlock()

	converted := false
	e.once.Do(func() {
		t0 := time.Now()
		// Compile the canonical re-rendering, not the submitted AST: see
		// the type comment. prog hashes identically to rt by construction.
		rt, err := popprog.Parse(prog.WriteSource())
		if err != nil {
			e.err = err
			return
		}
		m, err := compile.Compile(rt)
		if err != nil {
			e.err = err
			return
		}
		var res *convert.Result
		if optimize {
			res, e.report, e.err = convert.Optimize(m)
		} else {
			res, e.err = convert.Convert(m)
		}
		if e.err == nil {
			e.res = skeletonResult(res.Protocol, res.NumPointers, res.CoreStates)
		}
		if met != nil {
			met.Conversions.Inc()
			met.ConvertNanos.Add(time.Since(t0).Nanoseconds())
		}
		converted = e.err == nil
	})
	// The entry is complete once Do returns. Only the converting call
	// queues its skeleton, and no call waits for the write.
	if converted {
		c.mu.Lock()
		c.enqueue(skeletonOp{key: key, entry: e})
		c.mu.Unlock()
	}
	return e.res, e.report, key, e.err
}

// enqueue hands op to the skeleton writer, if one runs and Close has not
// been called. Caller holds c.mu.
func (c *Cache) enqueue(op skeletonOp) {
	if c.done == nil || c.closing {
		return
	}
	c.pending = append(c.pending, op)
	c.queued.Signal()
}

// writeSkeletons is the writer goroutine Persist starts. It runs the queued
// operations one at a time and in queue order, so the writes and removals
// of one key land in the order Convert queued them. A write whose entry is
// no longer cached is skipped: the entry was evicted, and its removal is
// queued after the write or already ran. After Close it drains the queue
// and exits.
func (c *Cache) writeSkeletons(dir string) {
	defer close(c.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		for len(c.pending) == 0 && !c.closing {
			c.queued.Wait()
		}
		if len(c.pending) == 0 {
			return
		}
		op := c.pending[0]
		c.pending[0] = skeletonOp{}
		c.pending = c.pending[1:]
		if op.entry != nil {
			if el, ok := c.m[op.key]; !ok || el.Value.(*cacheItem).entry != op.entry {
				continue
			}
		}
		c.mu.Unlock()
		path := filepath.Join(dir, skeletonFile(op.key))
		if op.entry != nil {
			c.writeSkeleton(path, op.key, op.entry)
		} else {
			_ = os.Remove(path) // best-effort, as writeSkeleton
		}
		c.mu.Lock()
	}
}

// Close stops queueing skeleton operations and returns once the writer has
// run every queued one and exited. Conversions after Close are not
// persisted. Without Persist it returns at once.
func (c *Cache) Close() {
	c.mu.Lock()
	c.closing = true
	c.queued.Signal()
	done := c.done
	c.mu.Unlock()
	if done != nil {
		<-done
	}
}

// cacheSkeleton is the on-disk form of a completed conversion: exactly the
// fields a warm hit serves (the result document never touches the Result's
// unexported machinery), plus the protocol's content fingerprint so a loaded
// file that no longer matches its own protocol is rejected instead of
// silently serving a corrupted conversion.
type cacheSkeleton struct {
	Key         string             `json:"key"`
	Fingerprint string             `json:"fingerprint"`
	Protocol    *protocol.Protocol `json:"protocol"`
	NumPointers int                `json:"num_pointers"`
	CoreStates  int                `json:"core_states"`
	Report      *convert.OptReport `json:"report,omitempty"`
}

// skeletonFileRe matches persisted cache entries: the 64-hex canonical hash
// with the ":opt" suffix mapped to "-opt" (':' is not portable in filenames).
var skeletonFileRe = regexp.MustCompile(`^[0-9a-f]{64}(-opt)?\.json$`)

func skeletonFile(key string) string { return strings.ReplaceAll(key, ":", "-") + ".json" }

// Persist enables write-through persistence under dir, warms the cache
// from the skeleton files already there (newest first, up to capacity) and
// starts the skeleton writer, which Close stops. Invalid, corrupt, or
// fingerprint-mismatched files are ignored: persistence is an optimisation,
// and a cold entry merely costs one reconversion. Call it at most once.
func (c *Cache) Persist(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	type candidate struct {
		name string
		mod  time.Time
	}
	var cands []candidate
	for _, ent := range entries {
		if ent.IsDir() || !skeletonFileRe.MatchString(ent.Name()) {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		cands = append(cands, candidate{ent.Name(), info.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mod.After(cands[j].mod) })
	if len(cands) > c.max {
		cands = cands[:c.max]
	}
	// Newest first with PushBack keeps the most recent conversions at the
	// LRU front, mirroring the order they would occupy in a live server.
	for _, cand := range cands {
		skel, err := loadSkeleton(filepath.Join(dir, cand.name))
		if err != nil || skeletonFile(skel.Key) != cand.name {
			continue
		}
		if _, dup := c.m[skel.Key]; dup {
			continue
		}
		e := &cacheEntry{
			res:    skeletonResult(skel.Protocol, skel.NumPointers, skel.CoreStates),
			report: skel.Report,
		}
		e.once.Do(func() {}) // already complete: hits must not reconvert
		c.m[skel.Key] = c.ll.PushBack(&cacheItem{key: skel.Key, entry: e})
	}
	c.done = make(chan struct{})
	go c.writeSkeletons(dir)
	return nil
}

// skeletonResult is the part of a conversion the cache keeps: what serving
// reads and a skeleton file restores.
func skeletonResult(p *protocol.Protocol, numPointers, coreStates int) *convert.Result {
	return &convert.Result{Protocol: p, NumPointers: numPointers, CoreStates: coreStates}
}

// loadSkeleton reads and validates one persisted conversion.
func loadSkeleton(path string) (*cacheSkeleton, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var skel cacheSkeleton
	if err := json.Unmarshal(data, &skel); err != nil {
		return nil, err
	}
	if skel.Protocol == nil {
		return nil, os.ErrInvalid
	}
	if err := skel.Protocol.Validate(); err != nil {
		return nil, err
	}
	if skel.Protocol.Fingerprint() != skel.Fingerprint {
		return nil, os.ErrInvalid
	}
	return &skel, nil
}

// writeSkeleton persists a completed conversion atomically
// (atomicfile.Write) at path. Best-effort: a write failure costs a cold
// boot later, never the job. The file holds exactly the bytes
// json.Marshal(&skel) would, written by appendSkeleton.
func (c *Cache) writeSkeleton(path, key string, e *cacheEntry) {
	skel := cacheSkeleton{
		Key:         key,
		Fingerprint: e.res.Protocol.Fingerprint(),
		Protocol:    e.res.Protocol,
		NumPointers: e.res.NumPointers,
		CoreStates:  e.res.CoreStates,
		Report:      e.report,
	}
	data, err := appendSkeleton(make([]byte, 0, skeletonSize(e.res.Protocol)), &skel)
	if err != nil {
		return
	}
	_ = c.writeFile(path, data) // best-effort, see above
}

// appendSkeleton appends to dst the bytes json.Marshal(skel) produces. The
// transition table, nearly all of a converted protocol's bytes, is written
// directly; every other field goes through encoding/json, so its escaping
// is the package's own. It is a function and not a json.Marshaler because
// encoding/json re-scans a marshaler's output, which would cost most of
// what the direct write saves.
func appendSkeleton(dst []byte, skel *cacheSkeleton) ([]byte, error) {
	var err error
	// put appends a field's prefix and its value as encoding/json writes
	// it; the first error is kept.
	put := func(prefix string, v any) {
		data, merr := json.Marshal(v)
		if err == nil {
			err = merr
		}
		dst = append(append(dst, prefix...), data...)
	}
	put(`{"key":`, skel.Key)
	put(`,"fingerprint":`, skel.Fingerprint)
	if p := skel.Protocol; p == nil {
		put(`,"protocol":`, nil)
	} else {
		put(`,"protocol":{"Name":`, p.Name)
		put(`,"States":`, p.States)
		dst = appendTransitions(append(dst, `,"Transitions":`...), p.Transitions, len(p.States))
		put(`,"Input":`, p.Input)
		put(`,"Accepting":`, p.Accepting)
		dst = append(dst, '}')
	}
	put(`,"num_pointers":`, skel.NumPointers)
	put(`,"core_states":`, skel.CoreStates)
	if skel.Report != nil {
		put(`,"report":`, skel.Report)
	}
	if err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendTransitions appends ts as encoding/json writes a []protocol.Transition.
// The indices of the n states are formatted once into a decimal table, so
// each field is one copy; an index outside [0, n) is formatted in place.
func appendTransitions(dst []byte, ts []protocol.Transition, n int) []byte {
	if ts == nil {
		return append(dst, "null"...)
	}
	digits := make([]byte, 0, 4*n)
	ends := make([]int, n+1) // state i's decimal is digits[ends[i]:ends[i+1]]
	for i := 0; i < n; i++ {
		digits = strconv.AppendInt(digits, int64(i), 10)
		ends[i+1] = len(digits)
	}
	index := func(dst []byte, v int32) []byte {
		if uint32(v) < uint32(n) {
			return append(dst, digits[ends[v]:ends[v+1]]...)
		}
		return strconv.AppendInt(dst, int64(v), 10)
	}
	dst = append(dst, '[')
	for i, t := range ts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"Q":`...)
		dst = index(dst, t.Q)
		dst = append(dst, `,"R":`...)
		dst = index(dst, t.R)
		dst = append(dst, `,"Q2":`...)
		dst = index(dst, t.Q2)
		dst = append(dst, `,"R2":`...)
		dst = index(dst, t.R2)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// skeletonSize estimates the length of p's skeleton file from above, so
// writeSkeleton's buffer never grows: per transition 24 bytes of field
// names and punctuation and four indices below len(p.States).
func skeletonSize(p *protocol.Protocol) int {
	digits := len(strconv.Itoa(max(len(p.States)-1, 0)))
	n := 1024 + len(p.Transitions)*(24+4*digits) + 20*len(p.Input) + 6*len(p.Accepting)
	for _, s := range p.States {
		n += len(s) + 3
	}
	return n
}

// Len reports the number of cached conversions (including in-flight ones).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
