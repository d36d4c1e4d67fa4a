package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// Fingerprint returns a content-addressed identity of the protocol: the
// SHA-256 of its full definition (name, state names in order, transition
// list in order, input states, accepting set). Two protocols share a
// fingerprint exactly when they are byte-for-byte the same definition, so
// equal fingerprints certify that a cached conversion returned the identical
// protocol a fresh conversion would have produced — the property the serve
// package's differential cache test asserts.
func (p *Protocol) Fingerprint() string {
	h := sha256.New()
	var num [8]byte
	writeStr := func(s string) {
		binary.LittleEndian.PutUint64(num[:], uint64(len(s)))
		h.Write(num[:])
		h.Write([]byte(s))
	}
	// Every index is written as 8 bytes, whatever its Go type, so
	// fingerprints do not depend on the width of Transition's fields.
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(num[:], uint64(int64(v)))
		h.Write(num[:])
	}
	writeStr(p.Name)
	writeInt(len(p.States))
	for _, s := range p.States {
		writeStr(s)
	}
	writeInt(len(p.Input))
	for _, i := range p.Input {
		writeInt(i)
	}
	for _, a := range p.Accepting {
		if a {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	writeInt(len(p.Transitions))
	for _, t := range p.Transitions {
		writeInt(int(t.Q))
		writeInt(int(t.R))
		writeInt(int(t.Q2))
		writeInt(int(t.R2))
	}
	return hex.EncodeToString(h.Sum(nil))
}
