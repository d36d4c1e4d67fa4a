package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"
)

func fingerprintTestProtocol(t *testing.T, name string, accept bool) *Protocol {
	t.Helper()
	b := NewBuilder(name)
	b.Input("A", "B")
	b.Transition("A", "B", "A", "A")
	b.AcceptingIf("A", accept)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFingerprintIdentity pins that structurally identical protocols share a
// fingerprint and any definitional difference — name, accepting set, extra
// transition — separates them.
func TestFingerprintIdentity(t *testing.T) {
	p1 := fingerprintTestProtocol(t, "fp", true)
	p2 := fingerprintTestProtocol(t, "fp", true)
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Fatal("identical protocols have different fingerprints")
	}
	if len(p1.Fingerprint()) != 64 {
		t.Fatalf("fingerprint %q is not 64 hex chars", p1.Fingerprint())
	}
	if p1.Fingerprint() == fingerprintTestProtocol(t, "fp2", true).Fingerprint() {
		t.Fatal("renamed protocol shares a fingerprint")
	}
	if p1.Fingerprint() == fingerprintTestProtocol(t, "fp", false).Fingerprint() {
		t.Fatal("different accepting set shares a fingerprint")
	}
	b := NewBuilder("fp")
	b.Input("A", "B")
	b.Transition("A", "B", "A", "A")
	b.Transition("B", "B", "A", "B")
	b.AcceptingIf("A", true)
	p3, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Fingerprint() == p3.Fingerprint() {
		t.Fatal("extra transition shares a fingerprint")
	}
}

// referenceFingerprint is Fingerprint written one 8-byte word (and one
// string) per hash call: the byte stream the chunked writer must reproduce.
func referenceFingerprint(p *Protocol) string {
	h := sha256.New()
	var num [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(num[:], uint64(int64(v)))
		h.Write(num[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
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

// TestFingerprintMatchesReference holds the chunked Fingerprint to the
// per-word reference on random protocols whose words and strings straddle
// chunk boundaries at every alignment: names from empty to several chunks
// long, up to a few thousand transitions, negative indices and empty or
// nil slices.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		name := func() string {
			switch rng.Intn(8) {
			case 0:
				return ""
			case 1:
				return strings.Repeat("é", rng.Intn(20000))
			}
			return strings.Repeat("q", rng.Intn(40))
		}
		p := &Protocol{Name: name()}
		for i := rng.Intn(60); i > 0; i-- {
			p.States = append(p.States, name())
			p.Accepting = append(p.Accepting, rng.Intn(2) == 0)
		}
		if rng.Intn(4) > 0 {
			p.Input = []int{}
		}
		for i := rng.Intn(10); i > 0; i-- {
			p.Input = append(p.Input, rng.Intn(100)-50)
		}
		for i := rng.Intn(3000); i > 0; i-- {
			p.Transitions = append(p.Transitions, Transition{
				Q: rng.Int31(), R: -rng.Int31(), Q2: int32(rng.Intn(50)), R2: int32(rng.Intn(3))})
		}
		if got, want := p.Fingerprint(), referenceFingerprint(p); got != want {
			t.Fatalf("trial %d: Fingerprint %s, reference %s", trial, got, want)
		}
	}
}
