package explore

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// This file is the out-of-core storage tier of the parallel engine: a
// segmented append-only key log, the arena every interned key lives in and
// the only structure that spills. The engine alternates between a read-only
// parallel expansion pass and a single-threaded commit pass; the log
// exploits that contract — appends, seals and spills happen on the
// single-threaded side, while the expansion side only reads immutable data
// (resident segments, mapped views, or closed spill files).
//
// Segment format: a log record is uvarint(len(key)) followed by the key
// bytes. Records are appended in dense-id order (id k is the k-th record),
// never span a segment boundary, and the log starts with a single zero pad
// byte so that global offset 0 is never a valid record — the interner's
// open-addressing table uses off == 0 as its empty-slot sentinel. A BFS
// level is therefore a run of the log: its states are the records from the
// offset where the previous level's commit pass began appending, and the
// engine reads them back through a cursor instead of keeping a second copy.

const (
	// defaultSegSize is the sealed-segment size without a memory budget.
	defaultSegSize = 1 << 20
	minSegSize     = 64 << 10
	maxSegSize     = 4 << 20
	// initialTail is the capacity the first tail starts with.
	initialTail = 4 << 10

	// spillBlockRecs / spillBlockBytes bound one block of a level under a
	// memory budget: the expansion pass works block by block so the
	// in-flight pending records stay bounded no matter how wide a level is.
	spillBlockRecs  = 8192
	spillBlockBytes = 1 << 20

	// arenaChunkSize is the allocation unit of byteArena; chunks are never
	// grown in place, so handed-out slices stay valid until reset.
	arenaChunkSize = 64 << 10
)

// logSegment is one sealed span of the key log. Resident segments keep
// their bytes in data; spilled segments hold an open file plus, where the
// platform supports it, a read-only mapped view (data aliases mm then).
type logSegment struct {
	start uint64 // global offset of the segment's first byte
	size  int
	data  []byte   // resident bytes or mapped view; nil = read through f
	f     *os.File // non-nil once spilled
	mm    []byte   // mapped view to release on close
}

// keyLog is the global append-only arena of interned keys. Appends go to a
// resident tail; full tails are sealed into segments, and once resident
// bytes exceed the budget the oldest sealed segments spill to disk,
// oldest-first (BFS lookups skew towards recently interned keys). Spill
// files live in one per-run directory, created on the first spill and
// removed with everything in it by close, which the engine defers, so
// cancellation or error paths never leave orphaned segment files behind.
type keyLog struct {
	budget    int64  // resident budget for segment data + tail; 0 = unlimited
	resident  int64  // resident segment data + tail
	spillBase string // Options.SpillDir; "" means the system temp dir
	spillDir  string // created lazily; "" until the first spill
	segSize   int
	segs      []logSegment
	nspilled  int // segs[:nspilled] are on disk
	tail      []byte
	tailStart uint64
	end       uint64 // next global offset to be assigned
	met       *obs.ExploreMetrics
}

func newKeyLog(budget int64, spillBase string, met *obs.ExploreMetrics) *keyLog {
	segSize := defaultSegSize
	if budget > 0 {
		segSize = int(min(max(budget/8, minSegSize), maxSegSize))
	}
	l := &keyLog{budget: budget, spillBase: spillBase, segSize: segSize, met: met}
	// The first tail starts small and append grows it up to segSize: most
	// explorations intern a few KB of keys, and a whole segment up front
	// was most of their allocation.
	l.tail = make([]byte, 0, min(segSize, initialTail))
	l.tail = append(l.tail, 0) // pad: offset 0 is the empty-slot sentinel
	l.end = 1
	l.resident = 1
	return l
}

// append stores one key record and returns its global offset (always > 0).
// Single-threaded: only the engine's commit pass appends. It writes only
// past the bytes already appended, so keys a cursor handed out stay valid.
func (l *keyLog) append(key []byte) (uint64, error) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(key)))
	rec := n + len(key)
	// Records never span segments: seal the tail when the record would not
	// fit. Oversized records (> segSize) get a dedicated larger segment.
	if len(l.tail)+rec > l.segSize && len(l.tail) > 0 {
		if err := l.seal(); err != nil {
			return 0, err
		}
	}
	if need := len(l.tail) + rec; need > cap(l.tail) {
		// Grow by doubling, up to segSize (or to the oversized record).
		// Only the commit pass appends, so no reader sees the tail move.
		grown := make([]byte, len(l.tail), min(max(2*cap(l.tail), need), max(l.segSize, need)))
		copy(grown, l.tail)
		l.tail = grown
	}
	off := l.end
	l.tail = append(l.tail, tmp[:n]...)
	l.tail = append(l.tail, key...)
	l.end += uint64(rec)
	l.resident += int64(rec)
	if l.met != nil {
		l.met.SpillResidentPeak.Max(l.resident)
	}
	return off, nil
}

// seal freezes the tail into a segment and spills old segments if the
// resident budget is exceeded.
func (l *keyLog) seal() error {
	if len(l.tail) == 0 {
		return nil
	}
	l.segs = append(l.segs, logSegment{start: l.tailStart, size: len(l.tail), data: l.tail})
	l.tailStart = l.end
	l.tail = make([]byte, 0, l.segSize)
	if l.budget > 0 {
		for l.resident > l.budget && l.nspilled < len(l.segs) {
			if err := l.spillOne(); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillOne writes the oldest resident sealed segment to a spill file and
// replaces its resident bytes with a mapped view (or file reads where
// mapping is unavailable). The resident bytes themselves are left as they
// are, for keys a cursor handed out before the spill.
func (l *keyLog) spillOne() error {
	if l.spillDir == "" {
		dir, err := os.MkdirTemp(l.spillBase, "explore-spill-")
		if err != nil {
			return fmt.Errorf("explore: creating spill dir: %w", err)
		}
		l.spillDir = dir
	}
	sg := &l.segs[l.nspilled]
	f, err := os.Create(filepath.Join(l.spillDir, fmt.Sprintf("seg-%06d", l.nspilled)))
	if err != nil {
		return fmt.Errorf("explore: creating spill file: %w", err)
	}
	if _, err := f.Write(sg.data); err != nil {
		f.Close()
		return fmt.Errorf("explore: writing spill segment: %w", err)
	}
	if mm, err := mmapFile(f, sg.size); err == nil && mm != nil {
		sg.mm = mm
		sg.data = mm
	} else {
		sg.data = nil
	}
	sg.f = f
	l.nspilled++
	l.resident -= int64(sg.size)
	if l.met != nil {
		l.met.SpillSegments.Inc()
		l.met.SpillBytes.Add(int64(sg.size))
	}
	return nil
}

// spilled reports whether the record at off lives in a spilled segment
// (i.e. reading it is a disk — or mapped-page — access, which the expansion
// pass batches in sorted offset order).
func (l *keyLog) spilled(off uint64) bool {
	return l.nspilled > 0 && off < l.segs[l.nspilled-1].start+uint64(l.segs[l.nspilled-1].size)
}

// locate returns the segment holding off, or nil when off is in the tail.
func (l *keyLog) locate(off uint64) *logSegment {
	if off >= l.tailStart {
		return nil
	}
	i := sort.Search(len(l.segs), func(i int) bool {
		return l.segs[i].start+uint64(l.segs[i].size) > off
	})
	return &l.segs[i]
}

// record returns the key bytes stored at off. The result may alias resident
// log data, a mapped view, or *scratch (grown as needed); it is valid until
// the next call reusing the same scratch. Safe for concurrent readers during
// the expansion pass (the log is immutable between commit passes).
func (l *keyLog) record(off uint64, scratch *[]byte) ([]byte, error) {
	sg := l.locate(off)
	if sg == nil {
		key, _, err := parseRecord(l.tail, int(off-l.tailStart))
		return key, err
	}
	rel := int(off - sg.start)
	if sg.data != nil {
		key, _, err := parseRecord(sg.data, rel)
		if err == nil && sg.f != nil && l.met != nil {
			l.met.SpillReadBytes.Add(int64(len(key)))
		}
		return key, err
	}
	// No mapped view: read the record through the file. Header first (the
	// uvarint length), then the key bytes.
	var hdr [binary.MaxVarintLen64]byte
	hn := sg.size - rel
	if hn > len(hdr) {
		hn = len(hdr)
	}
	if _, err := sg.f.ReadAt(hdr[:hn], int64(rel)); err != nil && err != io.EOF {
		return nil, fmt.Errorf("explore: reading spill segment: %w", err)
	}
	klen, w := binary.Uvarint(hdr[:hn])
	if w <= 0 {
		return nil, fmt.Errorf("explore: corrupt spill record at offset %d", off)
	}
	if int(klen) > cap(*scratch) {
		*scratch = make([]byte, int(klen))
	}
	buf := (*scratch)[:klen]
	if _, err := sg.f.ReadAt(buf, int64(rel+w)); err != nil {
		return nil, fmt.Errorf("explore: reading spill segment: %w", err)
	}
	if l.met != nil {
		l.met.SpillReadBytes.Add(int64(hn) + int64(klen))
	}
	return buf, nil
}

// parseRecord decodes the record at rel inside a segment's byte view and
// returns its key bytes and the record's length.
func parseRecord(data []byte, rel int) (key []byte, n int, err error) {
	klen, w := binary.Uvarint(data[rel:])
	if w <= 0 || rel+w+int(klen) > len(data) {
		return nil, 0, fmt.Errorf("explore: corrupt key-log record at %d", rel)
	}
	return data[rel+w : rel+w+int(klen)], w + int(klen), nil
}

// close releases mapped views and file handles, then removes the spill
// directory and everything in it.
func (l *keyLog) close() {
	for i := range l.segs {
		sg := &l.segs[i]
		if sg.mm != nil {
			munmap(sg.mm)
			sg.mm = nil
		}
		if sg.f != nil {
			sg.f.Close()
			sg.f = nil
		}
		sg.data = nil
	}
	if l.spillDir != "" {
		os.RemoveAll(l.spillDir)
		l.spillDir = ""
	}
}

// logCursor reads the log's records in append (= dense id) order from a
// given offset: the engine reads each BFS level through one while its
// commit pass appends the next level, and the analysis walks ids 0..n-1.
// Keys alias the bytes of the segment they were read from — resident bytes,
// a mapped view, or a read-back buffer of that segment's own — so they stay
// valid while the log grows past them.
type logCursor struct {
	l     *keyLog
	off   uint64 // global offset of the next record
	start uint64 // global offset of data[0]
	data  []byte // the bytes of the segment (or tail) holding off, once loaded
}

// cursorAt returns a cursor whose first record is the one at off.
func (l *keyLog) cursorAt(off uint64) logCursor { return logCursor{l: l, off: off} }

// next returns the key bytes of the next record.
func (c *logCursor) next() ([]byte, error) {
	if c.off >= c.l.end {
		return nil, fmt.Errorf("explore: key-log cursor past end")
	}
	if c.off-c.start >= uint64(len(c.data)) {
		if err := c.load(); err != nil {
			return nil, err
		}
	}
	key, n, err := parseRecord(c.data, int(c.off-c.start))
	if err != nil {
		return nil, err
	}
	c.off += uint64(n)
	return key, nil
}

// load points the cursor at the bytes of the segment holding c.off. A
// spilled segment without a mapped view is read back whole, into a buffer
// of its own: keys handed out from the previous segment may still be in
// use.
func (c *logCursor) load() error {
	sg := c.l.locate(c.off)
	if sg == nil {
		c.start, c.data = c.l.tailStart, c.l.tail
		return nil
	}
	c.start, c.data = sg.start, sg.data
	if sg.data == nil {
		buf := make([]byte, sg.size)
		if _, err := sg.f.ReadAt(buf, 0); err != nil {
			return fmt.Errorf("explore: reading spill segment: %w", err)
		}
		c.data = buf
	}
	if sg.f != nil && c.l.met != nil {
		c.l.met.SpillReadBytes.Add(int64(sg.size))
	}
	return nil
}

// byteArena hands out stable byte slices from fixed-size chunks: chunks are
// never grown in place, so slices stay valid until reset. Reset keeps the
// chunks for reuse, which is what keeps per-level allocations flat.
type byteArena struct {
	chunks [][]byte
	cur    int
}

// copyBytes copies b into the arena and returns the stable copy.
func (a *byteArena) copyBytes(b []byte) []byte {
	for {
		if a.cur == len(a.chunks) {
			a.chunks = append(a.chunks, make([]byte, 0, max(arenaChunkSize, len(b))))
		}
		c := a.chunks[a.cur]
		if len(c)+len(b) <= cap(c) {
			a.chunks[a.cur] = append(c, b...)
			return a.chunks[a.cur][len(c):]
		}
		a.cur++
	}
}

// reset recycles all chunks without freeing them.
func (a *byteArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}
