package popprog

import (
	"strings"
	"testing"
)

const hashTestSrc = `program counter
registers a, b

proc Main {
  while detect a {
    move a -> b
  }
  of true
}
`

// sourceHash parses src and returns its canonical hash.
func sourceHash(t *testing.T, src string) string {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p.CanonicalHash()
}

// TestCanonicalHashStable pins that the hash is a pure function of program
// structure: re-parsing the canonical rendering yields the same hash, and
// source-level formatting differences do not change it.
func TestCanonicalHashStable(t *testing.T) {
	p, err := Parse(hashTestSrc)
	if err != nil {
		t.Fatal(err)
	}
	h1 := p.CanonicalHash()
	if len(h1) != 64 {
		t.Fatalf("hash %q is not 64 hex chars", h1)
	}
	p2, err := Parse(p.WriteSource())
	if err != nil {
		t.Fatal(err)
	}
	if h2 := p2.CanonicalHash(); h2 != h1 {
		t.Fatalf("round-tripped hash %s != %s", h2, h1)
	}
	// Reformatted source (extra blank lines and indentation) keys the same.
	reformatted := strings.ReplaceAll(hashTestSrc, "\n  ", "\n\t \t")
	if hr := sourceHash(t, reformatted); hr != h1 {
		t.Fatalf("reformatted source hash %s != %s", hr, h1)
	}
}

// TestCanonicalHashDistinguishes pins that structural changes change the
// hash (the cache must not conflate different programs).
func TestCanonicalHashDistinguishes(t *testing.T) {
	h1 := sourceHash(t, hashTestSrc)
	if h2 := sourceHash(t, strings.Replace(hashTestSrc, "of true", "of false", 1)); h1 == h2 {
		t.Fatal("programs differing in an of-statement share a hash")
	}
	if h3 := sourceHash(t, strings.Replace(hashTestSrc, "move a -> b", "move b -> a", 1)); h1 == h3 {
		t.Fatal("programs differing in a move share a hash")
	}
}
