package explore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

		in := newInterner(0, t.TempDir(), nil)
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
			if got, ok, err := in.lookupExpand(h, key, &scratch, &deferred, 0, 0); err != nil || !ok || got != id {
				t.Fatalf("expansion lookup of an interned key: got (%d, %v, %v), want (%d, true, nil)", got, ok, err, id)
			}
		}
		absent := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
		if _, ok := expect[string(absent)]; !ok {
			if _, _, err := in.intern(hashKey(absent), absent, len(expect), len(expect)); !errors.Is(err, ErrStateLimit) {
				t.Fatalf("intern of an absent key at the limit: err %v, want ErrStateLimit", err)
			}
			if _, ok, err := in.lookupExpand(hashKey(absent), absent, &scratch, &deferred, 0, 0); err != nil || ok {
				t.Fatalf("expansion lookup of a key never interned: (%v, %v), want (false, nil)", ok, err)
			}
		}
		if len(deferred) != 0 {
			t.Fatalf("in-RAM lookups deferred %d reads", len(deferred))
		}
	})
}

// FuzzSpillSegment fuzzes the key log end to end: arbitrary byte strings
// become a stream of keys appended to a log that is force-sealed into
// segments and spilled under a one-byte budget, and read back
//
//   - by a cursor reading each record right after it is appended, the way
//     the engine reads a level while its commit pass appends the next one;
//   - by random access (record); and
//   - by a cursor opened at every record offset,
//
// the last two once through the mapped views and once through file reads,
// after every spilled segment's mapping is dropped. Every key a cursor hands
// out must keep its bytes until the end, across segment boundaries and
// later appends, seals and spills.
func FuzzSpillSegment(f *testing.F) {
	f.Add([]byte{3, 'a', 'b', 'c', 0, 1, 'z'})
	f.Add([]byte{255, 0, 1, 1, 1, 2, 2, 2})
	f.Add(bytes.Repeat([]byte{4, 'k', 'e', 'y', 's'}, 40))
	// Twelve distinct keys over three segments: a read-back buffer shared
	// by two segments would show in the keys read before it was reused.
	var distinct []byte
	for i := range byte(12) {
		distinct = append(distinct, 2, 'a'+i, '0'+i)
	}
	f.Add(distinct)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the fuzz input as keys: a length byte, then the key bytes
		// (truncated to what remains).
		var keys [][]byte
		for pos := 0; pos < len(data) && len(keys) < 100; {
			klen := min(int(data[pos]), len(data)-pos-1)
			keys = append(keys, data[pos+1:pos+1+klen])
			pos += 1 + klen
		}
		if len(keys) == 0 {
			return
		}

		l := newKeyLog(1, t.TempDir(), nil)
		defer l.close()
		offs := make([]uint64, len(keys))
		held := make([][]byte, len(keys))
		cur := l.cursorAt(1)
		for i, key := range keys {
			off, err := l.append(key)
			if err != nil {
				t.Fatal(err)
			}
			offs[i] = off
			if held[i], err = cur.next(); err != nil {
				t.Fatalf("following cursor, record %d: %v", i, err)
			}
			if i%5 == 4 {
				if err := l.seal(); err != nil {
					t.Fatal(err)
				}
			}
		}
		assertKeys(t, "following cursor", held, keys)

		check := func(how string) {
			var scratch []byte
			for i, key := range keys {
				got, err := l.record(offs[i], &scratch)
				if err != nil {
					t.Fatalf("%s record %d: %v", how, i, err)
				}
				if !bytes.Equal(got, key) {
					t.Fatalf("%s record %d: key %q, want %q", how, i, got, key)
				}
			}
			for i := range keys {
				cur := l.cursorAt(offs[i])
				for j := i; j < len(keys); j++ {
					var err error
					if held[j], err = cur.next(); err != nil {
						t.Fatalf("%s cursor from record %d, record %d: %v", how, i, j, err)
					}
				}
				if _, err := cur.next(); err == nil {
					t.Fatalf("%s cursor from record %d read past the last record without error", how, i)
				}
				assertKeys(t, fmt.Sprintf("%s cursor from record %d", how, i), held[i:], keys[i:])
			}
		}
		check("mapped")
		dropMappings(l)
		check("unmapped")
	})
}

// assertKeys fails unless got and want hold the same keys.
func assertKeys(t *testing.T, how string, got, want [][]byte) {
	t.Helper()
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: key %d is %q, want %q", how, i, got[i], want[i])
		}
	}
}

// dropMappings makes every spilled segment of l read through its file, as on
// a platform without mmap or after a failed mapping.
func dropMappings(l *keyLog) {
	for i := range l.segs[:l.nspilled] {
		sg := &l.segs[i]
		munmap(sg.mm)
		sg.mm, sg.data = nil, nil
	}
}
