package explore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/multiset"
)

// FuzzInternKey fuzzes the run-length configuration key and the sharded
// interner:
//
//   - encode/decode round-trips (AppendRunKey → SetFromRunKey → Equal), and
//     the run-length key is never longer than the dense AppendKey;
//   - arbitrary byte strings either fail SetFromRunKey or are canonical:
//     they re-encode to exactly the same bytes; truncated and non-minimal
//     tokens, zero tokens, adjacent runs, trailing runs and kinds past the
//     universe are all rejected with an error, never a panic;
//   - hash and shard assignment are a stable function of the configuration
//     (re-encoding a clone lands in the same shard);
//   - distinct configurations never collide in the interner — intern hands
//     out the next id exactly to unseen keys, and every key resolves to
//     exactly the id it was interned under, through intern and lookupExpand
//     alike, including after later inserts have grown the shard tables; at
//     the state limit known keys still resolve and unseen ones are refused.
//
// The first byte picks the universe size (1..256, so runs and counts both
// need multi-byte tokens); the rest is decoded once as a raw key and once as
// a stream of sparse configurations: a length byte, then that many
// (kind, count-low, count-high) triples.
func FuzzInternKey(f *testing.F) {
	f.Add([]byte{2, 0, 2, 1, 0, 4})
	f.Add([]byte{7, 1, 2, 7, 0})
	f.Add([]byte{255, 3, 0, 1, 0, 200, 9, 1, 254, 255, 255})
	f.Add([]byte{130, 2, 129, 1, 2, 2, 0, 0, 1, 100, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) + 1
		body := data[1:]

		// Arbitrary bytes must never crash the decoder, and any accepted
		// key must be the canonical encoding of what it decodes to.
		m := multiset.New(n)
		if err := m.SetFromRunKey(body); err == nil {
			if again := m.AppendRunKey(nil); !bytes.Equal(again, body) {
				t.Fatalf("accepted key %x re-encodes to %x", body, again)
			}
		}
		for _, bad := range []struct {
			name string
			key  []byte
		}{
			{"truncated token", []byte{2, 0x80}},
			{"non-minimal token", []byte{0x82, 0}},
			{"zero token", []byte{2, 0, 2}},
			{"adjacent runs", []byte{1, 1, 2}},
			{"trailing run", []byte{2, 1}},
			{"count past the universe", binary.AppendUvarint(binary.AppendUvarint(nil, uint64(2*n-1)), 2)},
			{"run past the universe", binary.AppendUvarint(binary.AppendUvarint(nil, uint64(2*n+1)), 2)},
		} {
			if err := m.SetFromRunKey(bad.key); err == nil {
				t.Fatalf("%s: key %x over %d kinds accepted as %v", bad.name, bad.key, n, m)
			}
		}

		var sets []*multiset.Multiset
		for len(body) > 0 && len(sets) < 64 {
			m := multiset.New(n)
			l := int(body[0] % 8)
			body = body[1:]
			for ; l > 0 && len(body) >= 3; l-- {
				m.Set(int(body[0])%n, int64(body[1])|int64(body[2])<<8)
				body = body[3:]
			}
			sets = append(sets, m)
		}

		st := newSpillStore(t.TempDir(), nil)
		defer st.close()
		in := newInterner(0, st, nil)
		defer in.close()
		expect := make(map[string]int)
		dec := multiset.New(n)
		for _, m := range sets {
			key := m.AppendRunKey(nil)
			if err := dec.SetFromRunKey(key); err != nil {
				t.Fatalf("round-trip decode of %v failed: %v", m, err)
			}
			if !dec.Equal(m) {
				t.Fatalf("round-trip of %v gave %v", m, dec)
			}
			if dense := m.AppendKey(nil); len(key) > len(dense) {
				t.Fatalf("run-length key of %v has %d bytes, dense key %d", m, len(key), len(dense))
			}

			h := hashKey(key)
			clonedKey := m.Clone().AppendRunKey(nil)
			if !bytes.Equal(clonedKey, key) {
				t.Fatalf("encoding of %v is not deterministic", m)
			}
			if hashKey(clonedKey) != h || shardIndex(hashKey(clonedKey)) != shardIndex(h) {
				t.Fatalf("hash/shard assignment of %v is unstable", m)
			}

			wantID, seen := expect[string(key)]
			id, fresh, err := in.intern(h, key, len(expect), math.MaxInt)
			if err != nil {
				t.Fatalf("intern of %v failed: %v", m, err)
			}
			if fresh == seen {
				t.Fatalf("intern of %v: fresh=%v, but seen before=%v", m, fresh, seen)
			}
			if seen {
				if id != wantID {
					t.Fatalf("config %v collided: id %d, want %d", m, id, wantID)
				}
				continue
			}
			if id != len(expect) {
				t.Fatalf("intern of new %v gave id %d, want %d", m, id, len(expect))
			}
			expect[string(key)] = id
			// At the limit a known key still resolves; it is not refused.
			if got, fresh, err := in.intern(h, key, len(expect), len(expect)); err != nil || fresh || got != id {
				t.Fatalf("re-intern of %v at the limit: (%d, %v, %v), want (%d, false, nil)", m, got, fresh, err, id)
			}
		}

		// Every interned key must still resolve to its own id after all
		// inserts, through the commit pass's probe and the expansion pass's
		// lookup alike: arena growth must not invalidate earlier entries,
		// and distinct configurations must have kept distinct ids. A key
		// never interned is refused at the limit and found by neither.
		var scratch []byte
		var deferred []deferredLookup
		for k, id := range expect {
			key := []byte(k)
			h := hashKey(key)
			if got, fresh, err := in.intern(h, key, len(expect), len(expect)); err != nil || fresh || got != id {
				t.Fatalf("interned key lost or remapped: got (%d, %v, %v), want (%d, false, nil)", got, fresh, err, id)
			}
			if got, ok := in.lookupExpand(h, key, &scratch, &deferred, 0, 0); !ok || got != id {
				t.Fatalf("expansion lookup of an interned key: got (%d, %v), want (%d, true)", got, ok, id)
			}
		}
		absent := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
		if _, ok := expect[string(absent)]; !ok {
			if _, _, err := in.intern(hashKey(absent), absent, len(expect), len(expect)); !errors.Is(err, ErrStateLimit) {
				t.Fatalf("intern of an absent key at the limit: err %v, want ErrStateLimit", err)
			}
			if _, ok := in.lookupExpand(hashKey(absent), absent, &scratch, &deferred, 0, 0); ok {
				t.Fatal("expansion lookup found a key never interned")
			}
		}
		if len(deferred) != 0 {
			t.Fatalf("in-RAM lookups deferred %d reads", len(deferred))
		}
	})
}

// FuzzSpillSegment fuzzes the out-of-core encodings end to end: arbitrary
// byte strings become a stream of (id, key) records that are pushed through
//
//   - the key log, force-sealed into segments and spilled under a one-byte
//     budget, then read back both by random access (record) and by the
//     sequential cursor; and
//   - the frontier, once fully resident and once with a one-byte flush
//     threshold (every record through a spill file),
//
// asserting byte-identical round-trips everywhere.
func FuzzSpillSegment(f *testing.F) {
	f.Add([]byte{1, 3, 'a', 'b', 'c', 2, 0, 5, 1, 'z'})
	f.Add([]byte{255, 0, 1, 1, 1, 2, 2, 2})
	f.Add(bytes.Repeat([]byte{7, 4, 'k', 'e', 'y', 's'}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the fuzz input as records: delta byte (clamped to ≥ 1),
		// key-length byte, key bytes (truncated to what remains).
		type rec struct {
			id  int
			key []byte
		}
		var recs []rec
		id := -1
		for pos := 0; pos+2 <= len(data) && len(recs) < 100; {
			delta := int(data[pos])
			if delta == 0 {
				delta = 1
			}
			klen := int(data[pos+1])
			pos += 2
			if klen > len(data)-pos {
				klen = len(data) - pos
			}
			id += delta
			recs = append(recs, rec{id: id, key: data[pos : pos+klen]})
			pos += klen
		}
		if len(recs) == 0 {
			return
		}

		st := newSpillStore(t.TempDir(), nil)
		defer st.close()

		// Key log: append everything, force-sealing every few records so the
		// one-byte budget spills each sealed segment to disk.
		l := newKeyLog(1, st, nil)
		defer l.close()
		offs := make([]uint64, len(recs))
		for i, r := range recs {
			off, err := l.append(r.key)
			if err != nil {
				t.Fatal(err)
			}
			offs[i] = off
			if i%5 == 4 {
				if err := l.seal(); err != nil {
					t.Fatal(err)
				}
			}
		}
		var scratch []byte
		for i, r := range recs {
			got, err := l.record(offs[i], &scratch)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if !bytes.Equal(got, r.key) {
				t.Fatalf("record %d: key %q, want %q", i, got, r.key)
			}
		}
		cur := l.cursor()
		for i, r := range recs {
			got, err := cur.next()
			if err != nil {
				t.Fatalf("cursor record %d: %v", i, err)
			}
			if !bytes.Equal(got, r.key) {
				t.Fatalf("cursor record %d: key %q, want %q", i, got, r.key)
			}
		}
		if _, err := cur.next(); err == nil {
			t.Fatal("cursor read past the last record without error")
		}

		// Frontier: resident and spilled-every-record, two levels each to
		// cover the endRead reset.
		for _, budget := range []int64{0, 1} {
			fr := newFrontier(budget, st, nil, 0)
			defer fr.close()
			for level := 0; level < 2; level++ {
				for _, r := range recs {
					if err := fr.add(r.id, r.key); err != nil {
						t.Fatal(err)
					}
				}
				if err := fr.startRead(); err != nil {
					t.Fatal(err)
				}
				var got, blk []frontierRec
				for {
					var err error
					blk, err = fr.nextBlock(blk[:0])
					if err != nil {
						t.Fatal(err)
					}
					if len(blk) == 0 {
						break
					}
					for _, r := range blk {
						got = append(got, frontierRec{id: r.id, key: bytes.Clone(r.key)})
					}
				}
				if len(got) != len(recs) {
					t.Fatalf("budget %d level %d: read %d records, want %d", budget, level, len(got), len(recs))
				}
				for i, r := range recs {
					if int(got[i].id) != r.id || !bytes.Equal(got[i].key, r.key) {
						t.Fatalf("budget %d level %d record %d: (%d, %q), want (%d, %q)",
							budget, level, i, got[i].id, got[i].key, r.id, r.key)
					}
				}
				fr.endRead()
			}
		}
	})
}
