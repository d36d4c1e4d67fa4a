package explore

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/par"
)

// pending records one successor produced by an expansion pass, before the
// commit pass has resolved it to a dense id.
type pending struct {
	key  []byte // encoded key in the worker's arena; meaningful when id < 0
	hash uint64
	id   int32 // dense id, or -1 if the state was unknown at expansion time
}

// minExpandChunk is the smallest frontier slice worth handing to its own
// goroutine; below it the per-level synchronisation outweighs the work, so
// narrow frontiers (chains, near-deterministic systems) expand inline.
const minExpandChunk = 64

// expandScratch is one chunk's reusable expansion state: the successor keys
// and their end offsets, a read buffer for unmapped spilled-segment reads,
// the arena that keeps this block's unknown keys stable until the commit
// pass, the deferred spilled lookups, and the decode-scratch state. Chunk k
// of every block reuses the k-th scratch; two chunks of one block never
// share one, since both arenas must survive until the commit pass.
type expandScratch[S any] struct {
	succKeys []byte
	succEnds []int
	readBuf  []byte
	arena    byteArena
	deferred []deferredLookup
	dec      S
}

// ExploreParallel is ExploreContext without cancellation: it builds the
// reachable graph from the initial states, expanding the BFS frontier on
// opts.Workers goroutines (at most GOMAXPROCS) and interning states through
// the sharded binary-key interner, and analyses its bottom SCCs. The Result
// is bit-identical for every worker count and every memory budget.
func ExploreParallel[S any](sys System[S], initial []S, opts Options) (*Result, error) {
	return ExploreContext(context.Background(), sys, initial, opts)
}

// ExploreContext is the exploration engine: a level-synchronised BFS whose
// frontier is expanded concurrently, followed by a sequential Tarjan
// bottom-SCC analysis.
//
// Determinism: dense state ids are assigned by a single-threaded commit pass
// that walks each level's discoveries in canonical order — frontier states
// in ascending id order, successors in the order AppendSuccessorKeys
// emitted them — which is exactly the discovery order of a sequential FIFO
// BFS. Edge lists, Tarjan component numbering, outcome order, witness keys
// and the point at which ErrStateLimit fires are therefore all
// bit-identical to that BFS's, for any worker count. Cancelling ctx (or
// exceeding its deadline) aborts at the next block barrier with the
// context's error.
//
// Storage: interned keys live once, in a segmented append-only log, and
// each level is read straight from it: the commit pass appends every fresh
// key under the next dense id, so a level is the run of records its
// predecessor's commit pass appended. With Options.MemBudget set, the log
// spills sealed segments to files under Options.SpillDir, and levels are
// processed in bounded blocks. Block-by-block commit resolves records in
// exactly the order a whole-level commit would — dedup is insensitive to
// when (not whether) a key was first interned — so the spilled engine is
// bit-identical to the all-RAM one at any budget. All spill files live in
// one per-run temp directory removed on every exit path, including
// cancellation and errors.
func ExploreContext[S any](ctx context.Context, sys System[S], initial []S, opts Options) (*Result, error) {
	limit := opts.maxStates()
	// More expansion goroutines than GOMAXPROCS only contend for the same
	// CPUs; results do not depend on the count.
	workers := min(opts.workers(), runtime.GOMAXPROCS(0))

	met := obs.Explore()
	if met != nil {
		met.Explorations.Inc()
		t0 := time.Now()
		defer func() { met.Nanos.Add(time.Since(t0).Nanoseconds()) }()
	}

	// The key log keeps half of the budget; the rest absorbs block buffers
	// and segment slack. The fixed-width interner tables (~16 bytes per
	// state) are the irreducible floor and are not budgeted.
	in := newInterner(opts.MemBudget/2, opts.SpillDir, met)
	defer in.close()

	numStates := 0
	g := newGraph()

	// intern assigns the next dense id to an unseen key. Single-threaded:
	// only the initial scan and the commit pass call it.
	intern := func(key []byte, h uint64) (int, error) {
		id, fresh, err := in.intern(h, key, numStates, limit)
		if fresh {
			numStates++
			if met != nil {
				met.States.Inc()
			}
		}
		return id, err
	}

	var keyBuf []byte
	for _, s := range initial {
		keyBuf = sys.AppendKey(keyBuf[:0], s)
		if _, err := intern(keyBuf, hashKey(keyBuf)); err != nil {
			return nil, err
		}
	}

	// Without a budget a level is one block; under one, blocks are bounded
	// so the in-flight pending records stay bounded however wide a level is.
	blockRecs, blockBytes := math.MaxInt, math.MaxInt
	if opts.MemBudget > 0 {
		blockRecs, blockBytes = spillBlockRecs, spillBlockBytes
	}
	var scratches []*expandScratch[S]
	var blk [][]byte
	var perState [][]pending

	// A level is a run of the log: the states [lo, numStates) are the
	// records from levelOff on — offset 1, past the pad byte, for the
	// initial states, and for each later level the offset where its
	// predecessor's commit pass began appending.
	for lo, levelOff := 0, uint64(1); lo < numStates; {
		hi := numStates
		if met != nil {
			met.Levels.Inc()
			met.Frontier.Observe(int64(hi - lo))
		}
		cur := in.log.cursorAt(levelOff)
		levelOff = in.log.end

		for lo < hi {
			if err := ctx.Err(); err != nil {
				if met != nil {
					met.Cancellations.Inc()
				}
				return nil, err
			}
			blk = blk[:0]
			for size := 0; len(blk) < min(hi-lo, blockRecs) && size < blockBytes; {
				key, err := cur.next()
				if err != nil {
					return nil, err
				}
				blk = append(blk, key)
				size += len(key)
			}
			lo += len(blk)

			// Expansion pass: par.Ordered tasks, one per chunk, read the
			// interner and produce, per frontier state, its successor
			// records. Writes go to disjoint perState slots, so the only
			// shared structures are the read-only interner and key log. The
			// first error in chunk order wins.
			for len(perState) < len(blk) {
				perState = append(perState, nil)
			}
			chunk := max((len(blk)+workers-1)/workers, minExpandChunk)
			chunks := (len(blk) + chunk - 1) / chunk
			for len(scratches) < chunks {
				scratches = append(scratches, &expandScratch[S]{})
			}
			_, err := par.Ordered(ctx, chunks, workers, func(ctx context.Context, _, k int) error {
				lo := k * chunk
				return expandBlock(ctx, sys, in, blk, perState, lo, min(lo+chunk, len(blk)), scratches[k])
			})
			if err != nil {
				if met != nil && ctx.Err() != nil {
					met.Cancellations.Inc()
				}
				return nil, err
			}

			// Commit pass: resolve pending successors to dense ids in
			// canonical (frontier id, successor index) order — the
			// sequential BFS order. Blocks commit in frontier order, so the
			// global resolution order is identical to a whole-level commit.
			// Frontier ids ascend across blocks and levels (each level holds
			// the ids its predecessor's commit assigned, in order), so each
			// frontier state closes the next CSR row. The block's keys alias
			// the log, which the commit pass only appends past.
			for bi := range blk {
				recs := perState[bi]
				for j := range recs {
					r := &recs[j]
					if r.id >= 0 {
						g.to = append(g.to, r.id)
						continue
					}
					id, err := intern(r.key, r.hash)
					if err != nil {
						return nil, err
					}
					g.to = append(g.to, int32(id))
				}
				g.endRow()
				if met != nil {
					met.Edges.Add(int64(len(recs)))
				}
			}
		}
	}

	return analyseFromLog(sys, in.log, g)
}

// expandBlock expands blk[lo:hi] into perState[lo:hi], and returns
// ctx.Err() if ctx is cancelled before it finishes. Each frontier state is
// decoded into the chunk's scratch state and its successor keys are encoded
// in place. The pass only reads the interner and key log: already-known
// successors resolve to ids immediately (or via the deferred batch below),
// and unknown successors' keys are copied into the chunk's arena for the
// commit pass. Lookups whose confirming key bytes live in spilled segments
// are deferred and then resolved in sorted offset order — one sequential
// sweep over the spilled tier per chunk instead of random per-successor
// reads.
func expandBlock[S any](ctx context.Context, sys System[S], in *interner, blk [][]byte,
	perState [][]pending, lo, hi int, sc *expandScratch[S]) error {
	sc.arena.reset()
	sc.deferred = sc.deferred[:0]
	for i := lo; i < hi; i++ {
		if (i-lo)&63 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s, err := sys.DecodeKey(sc.dec, blk[i])
		if err != nil {
			return err
		}
		sc.dec = s
		sc.succKeys, sc.succEnds = sys.AppendSuccessorKeys(s, sc.succKeys[:0], sc.succEnds[:0])
		recs := perState[i][:0]
		start := 0
		for j, end := range sc.succEnds {
			key := sc.succKeys[start:end]
			start = end
			h := hashKey(key)
			id, ok, err := in.lookupExpand(h, key, &sc.readBuf, &sc.deferred, int32(i), int32(j))
			if err != nil {
				return err
			}
			if ok {
				recs = append(recs, pending{id: int32(id)})
				continue
			}
			recs = append(recs, pending{key: sc.arena.copyBytes(key), hash: h, id: -1})
		}
		perState[i] = recs
	}
	if len(sc.deferred) == 0 {
		return nil
	}
	sort.Slice(sc.deferred, func(a, b int) bool { return sc.deferred[a].off < sc.deferred[b].off })
	for _, dl := range sc.deferred {
		p := &perState[dl.i][dl.j]
		rec, err := in.log.record(dl.off, &sc.readBuf)
		if err != nil {
			return err
		}
		if bytes.Equal(rec, p.key) {
			p.id = dl.id
			continue
		}
		// First fingerprint match was a false positive: resume the probe.
		id, ok, err := in.resumeLookup(dl.hash, p.key, dl.slot, &sc.readBuf)
		if err != nil {
			return err
		}
		if ok {
			p.id = int32(id)
		}
	}
	return nil
}
