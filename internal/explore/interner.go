package explore

import (
	"bytes"

	"repro/internal/multiset"
	"repro/internal/obs"
)

// The sharded state interner maps compact binary state keys to dense integer
// ids. Keys are stored once, appended to the global key log (which seals
// into segments and spills to disk under a memory budget); the in-RAM part
// of the interner is per-shard open-addressing tables of fixed-width
// entries — a log offset, a 32-bit hash fingerprint and the dense id, 16
// bytes per state regardless of key size. Lookups probe by fingerprint and
// confirm against the full key bytes read from the log, so false fingerprint
// matches cost one extra read, never a wrong id.
//
// Shards are selected by the low 6 bits of the 64-bit FNV-1a key hash and
// probe slots by the high 32 bits (the fingerprint), so both are pure
// functions of the key — stable across runs, worker counts and budgets.
//
// Concurrency contract: the engine alternates between a read-only
// expansion pass (many workers calling lookupExpand and resumeLookup) and a
// single-threaded commit pass (one goroutine calling intern). The passes
// never overlap: the commit pass starts only after par.Ordered has returned
// from the expansion pass, and that return is the happens-before edge that
// publishes every expansion read before the commit pass writes, and every
// write before the next expansion pass reads. The interner therefore takes
// no locks; a scheduler that overlapped the passes would have to add them.

const (
	internShardBits = 6
	internShardCnt  = 1 << internShardBits

	// internInitialSlots is each shard's initial table size; tables grow by
	// doubling at 3/4 load.
	internInitialSlots = 16
)

// internEntry locates one interned key: off is the key-log offset of its
// record (0 = empty slot; the log's leading pad byte guarantees no record
// lives at offset 0), fp the hash fingerprint, id the dense state id.
type internEntry struct {
	off uint64
	fp  uint32
	id  int32
}

type internShard struct {
	entries []internEntry // open addressing; len is a power of two
	count   int
}

type interner struct {
	shards [internShardCnt]internShard
	log    *keyLog
	// met is the telemetry group captured at construction (nil when
	// disabled): shard occupancy, key-log growth and hash collisions are
	// observed on insert, which the commit pass runs single-threaded.
	met *obs.ExploreMetrics
	// scratch backs key reads on the single-threaded intern path (commit
	// pass); concurrent expansion lookups carry their own scratch.
	scratch []byte
}

// newInterner builds an interner over a fresh key log. budget is the
// resident-byte budget of the log (0 = stay in RAM); spillBase is the
// directory its per-run spill directory goes under ("" = the system temp
// directory).
func newInterner(budget int64, spillBase string, met *obs.ExploreMetrics) *interner {
	in := &interner{log: newKeyLog(budget, spillBase, met), met: met}
	for i := range in.shards {
		in.shards[i].entries = make([]internEntry, internInitialSlots)
	}
	return in
}

// hashKey is the interner's hash function, exposed through a helper so the
// fuzz harness exercises exactly the production code path.
func hashKey(key []byte) uint64 { return multiset.Hash64(key) }

// shardIndex returns the shard a hash maps to.
func shardIndex(h uint64) int { return int(h & (internShardCnt - 1)) }

// fingerprint is the 32-bit probe fingerprint of a hash: the high bits,
// independent of the shard-selecting low bits.
func fingerprint(h uint64) uint32 { return uint32(h >> 32) }

// close releases the key log's spill resources and removes its files.
func (in *interner) close() { in.log.close() }

// intern returns the id interned for key, or, when key is absent, interns
// it under id next and reports it fresh, in one probe. An absent key is
// refused with errStateLimit when next has reached limit, and a key record
// that cannot be read fails the call: taking it for a mismatch would intern
// a present key twice. The key bytes are copied into the log; the caller
// may reuse its buffer. Single-threaded contract: it writes the table and
// shares the interner's read scratch, so only the commit pass (or other
// serial callers, like the fuzz harness) may use it; the expansion pass
// uses lookupExpand.
func (in *interner) intern(h uint64, key []byte, next, limit int) (id int, fresh bool, err error) {
	shard := shardIndex(h)
	sh := &in.shards[shard]
	fp := fingerprint(h)
	mask := uint32(len(sh.entries) - 1)
	collision := false
	slot := fp & mask
	for ; sh.entries[slot].off != 0; slot = (slot + 1) & mask {
		e := sh.entries[slot]
		if e.fp != fp {
			continue
		}
		rec, err := in.log.record(e.off, &in.scratch)
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(rec, key) {
			return int(e.id), false, nil
		}
		collision = true // same fingerprint, different key
	}
	if next >= limit {
		return 0, false, errStateLimit(limit)
	}
	off, err := in.log.append(key)
	if err != nil {
		return 0, false, err
	}
	if (sh.count+1)*4 > len(sh.entries)*3 {
		sh.grow()
		slot, collision = sh.freeSlot(fp)
	}
	sh.entries[slot] = internEntry{off: off, fp: fp, id: int32(next)}
	sh.count++
	if in.met != nil {
		in.met.InternShard.Add(shard, 1)
		in.met.InternArenaBytes.Add(int64(len(key)))
		if collision {
			in.met.InternCollisions.Inc()
		}
	}
	return next, true, nil
}

// deferredLookup is an expansion-pass lookup whose first fingerprint match
// points into a spilled segment: the confirming read is deferred so the
// worker can batch all of a chunk's spilled reads in sorted offset order.
type deferredLookup struct {
	off  uint64 // candidate record offset to confirm against
	hash uint64
	slot uint32 // probe slot of the candidate (to resume on mismatch)
	id   int32  // candidate's dense id, valid if the confirm succeeds
	i, j int32  // perState[i][j] is the pending record to resolve
}

// lookupExpand is the expansion-pass lookup: it writes nothing, and when the
// first fingerprint match needs a spilled-segment read it defers the
// confirmation into d (resolved by expandBlock's sorted batch) and reports
// not found. Resident confirms are done inline; a record that cannot be
// read fails the lookup, as in intern.
func (in *interner) lookupExpand(h uint64, key []byte, scratch *[]byte,
	d *[]deferredLookup, i, j int32) (id int, ok bool, err error) {
	sh := &in.shards[shardIndex(h)]
	fp := fingerprint(h)
	mask := uint32(len(sh.entries) - 1)
	for slot := fp & mask; ; slot = (slot + 1) & mask {
		e := sh.entries[slot]
		if e.off == 0 {
			return 0, false, nil
		}
		if e.fp != fp {
			continue
		}
		if in.log.spilled(e.off) {
			*d = append(*d, deferredLookup{off: e.off, hash: h, slot: slot, id: e.id, i: i, j: j})
			return 0, false, nil
		}
		rec, err := in.log.record(e.off, scratch)
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(rec, key) {
			return int(e.id), true, nil
		}
	}
}

// resumeLookup continues a probe sequence past a failed deferred confirm:
// from slot+1 onward, reading spilled records synchronously (fingerprint
// mismatches past the first match are ~2⁻³² rare, so this path is cold).
func (in *interner) resumeLookup(h uint64, key []byte, from uint32, scratch *[]byte) (int, bool, error) {
	sh := &in.shards[shardIndex(h)]
	fp := fingerprint(h)
	mask := uint32(len(sh.entries) - 1)
	for slot := (from + 1) & mask; ; slot = (slot + 1) & mask {
		e := sh.entries[slot]
		if e.off == 0 {
			return 0, false, nil
		}
		if e.fp != fp {
			continue
		}
		rec, err := in.log.record(e.off, scratch)
		if err != nil {
			return 0, false, err
		}
		if bytes.Equal(rec, key) {
			return int(e.id), true, nil
		}
	}
}

// grow doubles the shard's table, re-placing entries by fingerprint.
func (sh *internShard) grow() {
	old := sh.entries
	sh.entries = make([]internEntry, 2*len(old))
	for _, e := range old {
		if e.off != 0 {
			slot, _ := sh.freeSlot(e.fp)
			sh.entries[slot] = e
		}
	}
}

// freeSlot returns the first empty slot on fp's probe sequence, and whether
// the probe passed an entry with the same fingerprint.
func (sh *internShard) freeSlot(fp uint32) (slot uint32, collision bool) {
	mask := uint32(len(sh.entries) - 1)
	for slot = fp & mask; sh.entries[slot].off != 0; slot = (slot + 1) & mask {
		if sh.entries[slot].fp == fp {
			collision = true
		}
	}
	return slot, collision
}
