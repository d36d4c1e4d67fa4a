package popprog

import (
	"crypto/sha256"
	"encoding/hex"
)

// CanonicalHash returns a content-addressed identity of the program: the
// SHA-256 of its canonical text form (WriteSource). Two programs share a
// hash exactly when they are structurally identical up to the deterministic
// identifier mangling WriteSource applies, so the hash is a sound cache key
// for everything derived purely from program structure — in particular the
// §7 compile→convert pipeline, which is deterministic (the compile and
// convert determinism tests pin this).
func (p *Program) CanonicalHash() string {
	sum := sha256.Sum256([]byte(p.WriteSource()))
	return hex.EncodeToString(sum[:])
}
