package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// Fingerprint returns a content-addressed identity of the protocol: the
// SHA-256 of its full definition (name, state names in order, transition
// list in order, input states, accepting set). Two protocols share a
// fingerprint exactly when they are byte-for-byte the same definition, so
// equal fingerprints certify that a cached conversion returned the identical
// protocol a fresh conversion would have produced — the property the serve
// package's differential cache test asserts.
//
// Every index and length is written as an 8-byte little-endian word, whatever
// its Go type, so fingerprints do not depend on the width of Transition's
// fields; a string is its length word followed by its bytes.
func (p *Protocol) Fingerprint() string {
	w := fingerprintWriter{h: sha256.New()}
	w.buf = w.chunk[:0]
	w.str(p.Name)
	w.word(len(p.States))
	for _, s := range p.States {
		w.str(s)
	}
	w.word(len(p.Input))
	for _, i := range p.Input {
		w.word(i)
	}
	for _, a := range p.Accepting {
		if a {
			w.word(1)
		} else {
			w.word(0)
		}
	}
	w.word(len(p.Transitions))
	// The table is nearly all of the stream: one room check per transition
	// instead of one per word.
	for _, t := range p.Transitions {
		if len(w.buf) > len(w.chunk)-32 {
			w.flush()
		}
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(t.Q)))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(t.R)))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(t.Q2)))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(t.R2)))
	}
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// fingerprintWriter packs Fingerprint's byte stream into a fixed chunk and
// hashes it a chunk at a time: one hash call per 8 KiB instead of one per
// 8-byte word, over the same bytes.
type fingerprintWriter struct {
	h     hash.Hash
	chunk [8 << 10]byte
	buf   []byte // chunk[:n], the bytes not yet hashed
}

func (w *fingerprintWriter) flush() {
	w.h.Write(w.buf)
	w.buf = w.buf[:0]
}

func (w *fingerprintWriter) word(v int) {
	if len(w.buf) > len(w.chunk)-8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(v)))
}

func (w *fingerprintWriter) str(s string) {
	w.word(len(s))
	for len(s) > 0 {
		if len(w.buf) == len(w.chunk) {
			w.flush()
		}
		n := copy(w.chunk[len(w.buf):], s)
		w.buf = w.buf[:len(w.buf)+n]
		s = s[n:]
	}
}
