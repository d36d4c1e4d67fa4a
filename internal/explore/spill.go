package explore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/obs"
)

// This file is the out-of-core storage tier of the parallel engine: a
// segmented append-only key log (the arena every interned key lives in), the
// spill directory that owns the on-disk lifetime of one exploration, and the
// spillable BFS frontier. The engine alternates between a read-only parallel
// expansion pass and a single-threaded commit pass; everything here exploits
// that contract — appends, seals, spills and frontier writes all happen on
// the single-threaded side, while the expansion side only reads immutable
// data (resident segments, mapped views, or closed spill files).
//
// Segment format: a log record is uvarint(len(key)) followed by the key
// bytes. Records are appended in dense-id order (id k is the k-th record),
// never span a segment boundary, and the log starts with a single zero pad
// byte so that global offset 0 is never a valid record — the interner's
// open-addressing table uses off == 0 as its empty-slot sentinel.

const (
	// defaultSegSize is the sealed-segment size without a memory budget.
	defaultSegSize = 1 << 20
	minSegSize     = 64 << 10
	maxSegSize     = 4 << 20
	// initialTail is the capacity the first tail starts with.
	initialTail = 4 << 10

	// spillBlockRecs / spillBlockBytes bound one frontier read-back block
	// under a memory budget: the expansion pass works block by block so the
	// in-flight pending records stay bounded no matter how wide a level is.
	spillBlockRecs  = 8192
	spillBlockBytes = 1 << 20

	// arenaChunkSize is the allocation unit of byteArena; chunks are never
	// grown in place, so handed-out slices stay valid until reset.
	arenaChunkSize = 64 << 10
)

// spillStore owns the spill directory of one exploration and the resident
// accounting of the spillable tier (key log + frontier buffers). The
// directory is created lazily on first spill and removed — with everything
// in it — by close, which the engine defers before any other cleanup, so
// cancellation or error paths never leave orphaned segment files behind.
type spillStore struct {
	base     string // Options.SpillDir; "" means the system temp dir
	dir      string // created lazily; "" until the first spill
	resident int64
	met      *obs.ExploreMetrics
}

func newSpillStore(base string, met *obs.ExploreMetrics) *spillStore {
	return &spillStore{base: base, met: met}
}

// create opens a fresh spill file, creating the per-run directory on first
// use. Only the single-threaded commit side calls it.
func (st *spillStore) create(name string) (*os.File, string, error) {
	if st.dir == "" {
		dir, err := os.MkdirTemp(st.base, "explore-spill-")
		if err != nil {
			return nil, "", fmt.Errorf("explore: creating spill dir: %w", err)
		}
		st.dir = dir
	}
	path := filepath.Join(st.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, "", fmt.Errorf("explore: creating spill file: %w", err)
	}
	return f, path, nil
}

// addResident adjusts the resident-byte accounting of the spillable tier
// and records the high-water mark. Single-threaded (commit side only).
func (st *spillStore) addResident(d int64) {
	st.resident += d
	if st.met != nil {
		st.met.SpillResidentPeak.Max(st.resident)
	}
}

// close removes the spill directory and everything in it. Callers close
// their file handles first (the engine's deferred cleanup runs in LIFO
// order, with close deferred before the log and frontiers).
func (st *spillStore) close() {
	if st.dir != "" {
		os.RemoveAll(st.dir)
		st.dir = ""
	}
}

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
// oldest-first (BFS lookups skew towards recently interned keys).
type keyLog struct {
	st        *spillStore
	budget    int64 // resident budget for segment data + tail; 0 = unlimited
	segSize   int
	segs      []logSegment
	nspilled  int // segs[:nspilled] are on disk
	tail      []byte
	tailStart uint64
	end       uint64 // next global offset to be assigned
	met       *obs.ExploreMetrics
}

func newKeyLog(budget int64, st *spillStore, met *obs.ExploreMetrics) *keyLog {
	segSize := defaultSegSize
	if budget > 0 {
		segSize = int(min(max(budget/8, minSegSize), maxSegSize))
	}
	l := &keyLog{st: st, budget: budget, segSize: segSize, met: met}
	// The first tail starts small and append grows it up to segSize: most
	// explorations intern a few KB of keys, and a whole segment up front
	// was most of their allocation.
	l.tail = make([]byte, 0, min(segSize, initialTail))
	l.tail = append(l.tail, 0) // pad: offset 0 is the empty-slot sentinel
	l.end = 1
	st.addResident(1)
	return l
}

// append stores one key record and returns its global offset (always > 0).
// Single-threaded: only the engine's commit pass appends.
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
	l.st.addResident(int64(rec))
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
		for l.st.resident > l.budget && l.nspilled < len(l.segs) {
			if err := l.spillOne(); err != nil {
				return err
			}
		}
	}
	return nil
}

// spillOne writes the oldest resident sealed segment to a spill file and
// replaces its resident bytes with a mapped view (or file reads where
// mapping is unavailable).
func (l *keyLog) spillOne() error {
	sg := &l.segs[l.nspilled]
	f, _, err := l.st.create(fmt.Sprintf("seg-%06d", l.nspilled))
	if err != nil {
		return err
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
	l.st.addResident(-int64(sg.size))
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
		return parseRecord(l.tail, int(off-l.tailStart))
	}
	rel := int(off - sg.start)
	if sg.data != nil {
		key, err := parseRecord(sg.data, rel)
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

// parseRecord decodes the record at rel inside a segment's byte view.
func parseRecord(data []byte, rel int) ([]byte, error) {
	klen, w := binary.Uvarint(data[rel:])
	if w <= 0 || rel+w+int(klen) > len(data) {
		return nil, fmt.Errorf("explore: corrupt key-log record at %d", rel)
	}
	return data[rel+w : rel+w+int(klen)], nil
}

// close releases mapped views and file handles. The spillStore removes the
// files themselves.
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
}

// logCursor streams the log's records in append (= dense id) order: the
// analysis phase walks ids 0..n-1 sequentially instead of holding states in
// RAM. Spilled segments without a mapped view are read back whole, once.
type logCursor struct {
	l    *keyLog
	seg  int // index into segs; len(segs) = the tail
	data []byte
	pos  int
	buf  []byte // whole-segment read-back for unmapped spilled segments
}

func (l *keyLog) cursor() *logCursor {
	c := &logCursor{l: l, seg: -1}
	c.advance()
	c.pos = 1 // skip the pad byte of the first segment
	return c
}

func (c *logCursor) advance() {
	c.seg++
	c.pos = 0
	if c.seg >= len(c.l.segs) {
		c.data = c.l.tail
		return
	}
	sg := &c.l.segs[c.seg]
	if sg.data != nil {
		c.data = sg.data
		if sg.f != nil && c.l.met != nil {
			c.l.met.SpillReadBytes.Add(int64(sg.size))
		}
		return
	}
	if cap(c.buf) < sg.size {
		c.buf = make([]byte, sg.size)
	}
	c.buf = c.buf[:sg.size]
	if _, err := sg.f.ReadAt(c.buf, 0); err != nil {
		// Surface the failure at the next record parse.
		c.data = nil
		return
	}
	if c.l.met != nil {
		c.l.met.SpillReadBytes.Add(int64(sg.size))
	}
	c.data = c.buf
}

// next returns the key bytes of the next record. The slice is valid until
// the cursor advances past the segment.
func (c *logCursor) next() ([]byte, error) {
	for c.pos >= len(c.data) {
		if c.seg >= len(c.l.segs) {
			return nil, fmt.Errorf("explore: key-log cursor past end")
		}
		c.advance()
	}
	if c.data == nil {
		return nil, fmt.Errorf("explore: reading spilled key-log segment failed")
	}
	key, err := parseRecord(c.data, c.pos)
	if err != nil {
		return nil, err
	}
	// Advance past the uvarint header + key bytes.
	_, w := binary.Uvarint(c.data[c.pos:])
	c.pos += w + len(key)
	return key, nil
}

// frontierRec is one decoded frontier entry: the state's dense id and its
// key bytes (aliasing reader storage, valid for the block).
type frontierRec struct {
	id  int32
	key []byte
}

// frontier is one BFS level's worth of discovered states, written during the
// commit pass of the previous level and streamed back — in commit order —
// for the next expansion pass. A record is the delta/varint-encoded id (ids
// are strictly increasing within a level, so deltas are ≥ 1) followed by
// uvarint(len(key)) + key bytes, so expansion never has to re-read the key
// log for frontier states. Under a budget the write buffer overflows to one
// sequential spill file per level.
type frontier struct {
	st     *spillStore
	budget int64 // write-buffer flush threshold; 0 = never spill
	met    *obs.ExploreMetrics
	slot   int // 0/1: which of the two ping-pong frontiers this is
	gen    int // bumped per level for unique spill file names

	// Writer state.
	buf    []byte
	count  int
	prev   int64
	f      *os.File
	fpath  string
	fbytes int64

	// Reader state.
	br     *bufio.Reader
	arena  byteArena
	readN  int
	rprev  int64
	rpos   int // position in buf once the file part is exhausted
	infile bool
}

func newFrontier(budget int64, st *spillStore, met *obs.ExploreMetrics, slot int) *frontier {
	return &frontier{st: st, budget: budget, met: met, slot: slot, prev: -1}
}

// add appends one freshly interned state to the level being written.
// Single-threaded (commit pass).
func (fr *frontier) add(id int, key []byte) error {
	var tmp [binary.MaxVarintLen64]byte
	before := len(fr.buf)
	n := binary.PutUvarint(tmp[:], uint64(int64(id)-fr.prev))
	fr.prev = int64(id)
	fr.buf = append(fr.buf, tmp[:n]...)
	n = binary.PutUvarint(tmp[:], uint64(len(key)))
	fr.buf = append(fr.buf, tmp[:n]...)
	fr.buf = append(fr.buf, key...)
	fr.count++
	fr.st.addResident(int64(len(fr.buf) - before))
	if fr.budget > 0 && int64(len(fr.buf)) >= fr.budget {
		return fr.flush()
	}
	return nil
}

// flush appends the write buffer to the level's spill file.
func (fr *frontier) flush() error {
	if len(fr.buf) == 0 {
		return nil
	}
	if fr.f == nil {
		f, path, err := fr.st.create(fmt.Sprintf("frontier-%d-%d", fr.slot, fr.gen))
		if err != nil {
			return err
		}
		fr.f, fr.fpath = f, path
		if fr.met != nil {
			fr.met.FrontierSpills.Inc()
		}
	}
	if _, err := fr.f.Write(fr.buf); err != nil {
		return fmt.Errorf("explore: writing frontier spill: %w", err)
	}
	fr.fbytes += int64(len(fr.buf))
	fr.st.addResident(-int64(len(fr.buf)))
	if fr.met != nil {
		fr.met.SpillBytes.Add(int64(len(fr.buf)))
	}
	fr.buf = fr.buf[:0]
	return nil
}

// startRead switches the frontier from writing to reading: the spill file
// (if any) streams first — its records were written first — then the
// resident remainder of the buffer.
func (fr *frontier) startRead() error {
	fr.readN = 0
	fr.rprev = -1
	fr.rpos = 0
	fr.infile = fr.f != nil
	if fr.infile {
		if _, err := fr.f.Seek(0, io.SeekStart); err != nil {
			return fmt.Errorf("explore: rewinding frontier spill: %w", err)
		}
		if fr.br == nil {
			fr.br = bufio.NewReaderSize(fr.f, 64<<10)
		} else {
			fr.br.Reset(fr.f)
		}
		if fr.met != nil {
			fr.met.SpillReadBytes.Add(fr.fbytes)
		}
	}
	return nil
}

// nextBlock appends up to one block of records to blk (reusing its storage)
// and reports them. A zero-length result means the level is exhausted.
// Without a budget the whole level is one block, which preserves the all-RAM
// engine's level-at-a-time behaviour exactly.
func (fr *frontier) nextBlock(blk []frontierRec) ([]frontierRec, error) {
	fr.arena.reset()
	maxRecs, maxBytes := fr.count-fr.readN, int(^uint(0)>>1)
	if fr.budget > 0 {
		if maxRecs > spillBlockRecs {
			maxRecs = spillBlockRecs
		}
		maxBytes = spillBlockBytes
	}
	bytes := 0
	for len(blk) < maxRecs && bytes < maxBytes {
		rec, n, err := fr.readRecord()
		if err != nil {
			return nil, err
		}
		blk = append(blk, rec)
		bytes += n
	}
	return blk, nil
}

// readRecord decodes the next frontier record from the file part or the
// resident buffer, returning its approximate byte size for block bounding.
func (fr *frontier) readRecord() (frontierRec, int, error) {
	var rec frontierRec
	if fr.infile {
		delta, err := binary.ReadUvarint(fr.br)
		if err == io.EOF {
			fr.infile = false
			return fr.readRecord()
		}
		if err != nil {
			return rec, 0, fmt.Errorf("explore: reading frontier spill: %w", err)
		}
		fr.rprev += int64(delta)
		rec.id = int32(fr.rprev)
		klen, err := binary.ReadUvarint(fr.br)
		if err != nil {
			return rec, 0, fmt.Errorf("explore: reading frontier spill: %w", err)
		}
		rec.key = fr.arena.grab(int(klen))
		if _, err := io.ReadFull(fr.br, rec.key); err != nil {
			return rec, 0, fmt.Errorf("explore: reading frontier spill: %w", err)
		}
		fr.readN++
		return rec, 1 + int(klen), nil
	}
	delta, w := binary.Uvarint(fr.buf[fr.rpos:])
	if w <= 0 {
		return rec, 0, fmt.Errorf("explore: corrupt frontier record")
	}
	fr.rpos += w
	fr.rprev += int64(delta)
	rec.id = int32(fr.rprev)
	size := w
	klen, w := binary.Uvarint(fr.buf[fr.rpos:])
	if w <= 0 || fr.rpos+w+int(klen) > len(fr.buf) {
		return rec, 0, fmt.Errorf("explore: corrupt frontier record")
	}
	rec.key = fr.buf[fr.rpos+w : fr.rpos+w+int(klen)]
	fr.rpos += w + int(klen)
	size += w + int(klen)
	fr.readN++
	return rec, size, nil
}

// endRead finishes the level: the spill file (if any) is closed and removed,
// and the frontier resets to writing mode for a later level.
func (fr *frontier) endRead() {
	fr.st.addResident(-int64(len(fr.buf)))
	fr.buf = fr.buf[:0]
	fr.count = 0
	fr.prev = -1
	fr.gen++
	fr.fbytes = 0
	if fr.f != nil {
		fr.f.Close()
		os.Remove(fr.fpath)
		fr.f, fr.fpath = nil, ""
	}
}

// close releases the open spill file, if any (the spillStore removes it).
func (fr *frontier) close() {
	if fr.f != nil {
		fr.f.Close()
		fr.f = nil
	}
}

// byteArena hands out stable byte slices from fixed-size chunks: chunks are
// never grown in place, so slices stay valid until reset. Reset keeps the
// chunks for reuse, which is what keeps per-level allocations flat.
type byteArena struct {
	chunks [][]byte
	cur    int
}

// grab reserves a writable slice of length n.
func (a *byteArena) grab(n int) []byte {
	for {
		if a.cur == len(a.chunks) {
			size := arenaChunkSize
			if n > size {
				size = n
			}
			a.chunks = append(a.chunks, make([]byte, 0, size))
		}
		c := a.chunks[a.cur]
		if len(c)+n <= cap(c) {
			a.chunks[a.cur] = c[:len(c)+n]
			return a.chunks[a.cur][len(c) : len(c)+n]
		}
		a.cur++
	}
}

// copyBytes copies b into the arena and returns the stable copy.
func (a *byteArena) copyBytes(b []byte) []byte {
	dst := a.grab(len(b))
	copy(dst, b)
	return dst
}

// reset recycles all chunks without freeing them.
func (a *byteArena) reset() {
	for i := range a.chunks {
		a.chunks[i] = a.chunks[i][:0]
	}
	a.cur = 0
}
