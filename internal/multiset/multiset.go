// Package multiset implements the counted multisets ("configurations" in the
// paper's terminology, §3) that population protocols, population programs and
// population machines all operate on.
//
// A multiset over a universe of n element kinds is represented densely as a
// vector of n non-negative counts. Element kinds are identified by their
// index in 0..n-1; callers keep their own mapping from indices to names.
// The dense representation is what makes the simulator and the exact
// model-checker fast: all hot-path operations are simple slice arithmetic.
package multiset

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Multiset is a counted multiset over element kinds 0..Len()-1.
//
// The zero value is the empty multiset over an empty universe. Multisets are
// mutable; use Clone before handing one to code that must not share state.
type Multiset struct {
	counts []int64
	size   int64
}

// New returns an empty multiset over a universe of n element kinds.
func New(n int) *Multiset {
	return &Multiset{counts: make([]int64, n)}
}

// FromCounts builds a multiset from a count vector. The slice is copied.
// It panics if any count is negative; configurations are non-negative by
// definition (§3).
func FromCounts(counts []int64) *Multiset {
	m := &Multiset{counts: make([]int64, len(counts))}
	for i, c := range counts {
		if c < 0 {
			panic(fmt.Sprintf("multiset: negative count %d at index %d", c, i))
		}
		m.counts[i] = c
		m.size += c
	}
	return m
}

// Singleton returns the multiset over n kinds containing exactly one element
// of kind i (the "abuse of notation" of §3 identifying q with the multiset q).
func Singleton(n, i int) *Multiset {
	m := New(n)
	m.counts[i] = 1
	m.size = 1
	return m
}

// Len returns the number of element kinds in the universe.
func (m *Multiset) Len() int { return len(m.counts) }

// Size returns |C|, the total number of elements.
func (m *Multiset) Size() int64 { return m.size }

// Count returns C(i), the multiplicity of kind i.
func (m *Multiset) Count(i int) int64 { return m.counts[i] }

// CountOf returns C(S) = Σ_{q∈S} C(q) for a set of kinds.
func (m *Multiset) CountOf(kinds []int) int64 {
	var total int64
	for _, i := range kinds {
		total += m.counts[i]
	}
	return total
}

// Set sets the multiplicity of kind i to c. It panics on negative c.
func (m *Multiset) Set(i int, c int64) {
	if c < 0 {
		panic(fmt.Sprintf("multiset: negative count %d at index %d", c, i))
	}
	m.size += c - m.counts[i]
	m.counts[i] = c
}

// Add adds delta (possibly negative) to the multiplicity of kind i.
// It panics if the multiplicity would become negative.
func (m *Multiset) Add(i int, delta int64) {
	c := m.counts[i] + delta
	if c < 0 {
		panic(fmt.Sprintf("multiset: count of %d would become %d", i, c))
	}
	m.counts[i] = c
	m.size += delta
}

// Move transfers one element from kind i to kind j. It panics if kind i is
// empty; that is the "hang" condition of the move instruction (§4), which
// callers must check for themselves with Count.
func (m *Multiset) Move(i, j int) {
	if m.counts[i] == 0 {
		panic(fmt.Sprintf("multiset: move from empty kind %d", i))
	}
	m.counts[i]--
	m.counts[j]++
}

// Swap exchanges the multiplicities of kinds i and j.
func (m *Multiset) Swap(i, j int) {
	m.counts[i], m.counts[j] = m.counts[j], m.counts[i]
}

// Clone returns a deep copy.
func (m *Multiset) Clone() *Multiset {
	out := &Multiset{counts: make([]int64, len(m.counts)), size: m.size}
	copy(out.counts, m.counts)
	return out
}

// Counts returns a copy of the underlying count vector.
func (m *Multiset) Counts() []int64 {
	out := make([]int64, len(m.counts))
	copy(out, m.counts)
	return out
}

// Equal reports whether m and o contain exactly the same elements.
func (m *Multiset) Equal(o *Multiset) bool {
	if len(m.counts) != len(o.counts) || m.size != o.size {
		return false
	}
	for i, c := range m.counts {
		if c != o.counts[i] {
			return false
		}
	}
	return true
}

// Leq reports whether m ≤ o componentwise (the order of §3).
func (m *Multiset) Leq(o *Multiset) bool {
	if len(m.counts) != len(o.counts) {
		return false
	}
	for i, c := range m.counts {
		if c > o.counts[i] {
			return false
		}
	}
	return true
}

// AddAll adds every element of o to m (the componentwise sum C + C').
// The universes must agree.
func (m *Multiset) AddAll(o *Multiset) {
	if len(m.counts) != len(o.counts) {
		panic("multiset: universe size mismatch in AddAll")
	}
	for i, c := range o.counts {
		m.counts[i] += c
	}
	m.size += o.size
}

// SubAll removes every element of o from m (the componentwise difference
// C − C', defined only when C ≥ C'). It panics if o ⊄ m.
func (m *Multiset) SubAll(o *Multiset) {
	if len(m.counts) != len(o.counts) {
		panic("multiset: universe size mismatch in SubAll")
	}
	for i, c := range o.counts {
		if m.counts[i] < c {
			panic(fmt.Sprintf("multiset: SubAll underflow at kind %d", i))
		}
		m.counts[i] -= c
	}
	m.size -= o.size
}

// Support returns the kinds with positive multiplicity, in increasing order.
func (m *Multiset) Support() []int { return m.AppendSupport(nil) }

// AppendSupport appends the kinds with positive multiplicity to dst, in
// increasing order, and returns the extended slice.
func (m *Multiset) AppendSupport(dst []int) []int {
	for i, c := range m.counts {
		if c > 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// IsZeroOn reports whether all the given kinds have multiplicity zero.
func (m *Multiset) IsZeroOn(kinds []int) bool {
	for _, i := range kinds {
		if m.counts[i] != 0 {
			return false
		}
	}
	return true
}

// Key returns a compact byte-string key identifying the multiset contents.
// It is suitable for use as a map key in the explicit-state model checker.
func (m *Multiset) Key() string {
	return string(m.AppendKey(make([]byte, 0, len(m.counts)*3)))
}

// AppendKey appends the dense binary key of the multiset to dst and returns
// the extended slice: one signed varint per kind, the bytes of Key. For a
// fixed universe size it is injective (each varint is self-delimiting).
func (m *Multiset) AppendKey(dst []byte) []byte {
	var tmp [binary.MaxVarintLen64]byte
	for _, c := range m.counts {
		n := binary.PutVarint(tmp[:], c)
		dst = append(dst, tmp[:n]...)
	}
	return dst
}

// SetFromKey decodes a key produced by AppendKey into m, overwriting its
// counts in place; the universe size is m.Len(). It rejects every key
// AppendKey cannot produce — truncated, overlong or non-minimal varints,
// negative counts, and bytes past the last kind — so an accepted key
// re-encodes to the same bytes. On error m is left in an unspecified state.
func (m *Multiset) SetFromKey(key []byte) error {
	m.size = 0
	for i := range m.counts {
		c, w := binary.Varint(key)
		switch {
		case w <= 0:
			return fmt.Errorf("multiset: truncated or overlong key varint at kind %d", i)
		case w > 1 && key[w-1] == 0:
			return fmt.Errorf("multiset: non-minimal key varint at kind %d", i)
		case c < 0:
			return fmt.Errorf("multiset: negative count %d at kind %d", c, i)
		}
		m.counts[i] = c
		m.size += c
		key = key[w:]
	}
	if len(key) > 0 {
		return fmt.Errorf("multiset: %d key bytes past the last of %d kinds", len(key), len(m.counts))
	}
	return nil
}

// AppendRunKey appends the run-length key of the multiset to dst and returns
// the extended slice. The key is a sequence of uvarint tokens walking the
// kinds in order: token 2c is one kind with count c ≥ 1, token 2r−1 skips a
// run of r empty kinds, and the empty kinds after the last occupied one are
// omitted. For a fixed universe size the key is canonical (one key per
// multiset) and never longer than AppendKey's, and its length is
// O(support) rather than O(Len()). SetFromRunKey inverts it.
func (m *Multiset) AppendRunKey(dst []byte) []byte {
	next := 0 // first kind the key has not covered yet
	for i, c := range m.counts {
		if c != 0 {
			dst = appendRunToken(dst, next, i, c)
			next = i + 1
		}
	}
	return dst
}

// AppendRunKeyOn is AppendRunKey for callers that already know the support:
// kinds must list, in increasing order, every kind with a positive count
// (empty kinds in the list are skipped). It costs O(len(kinds)).
func (m *Multiset) AppendRunKeyOn(dst []byte, kinds []int) []byte {
	next := 0
	for _, i := range kinds {
		if c := m.counts[i]; c != 0 {
			dst = appendRunToken(dst, next, i, c)
			next = i + 1
		}
	}
	return dst
}

// appendRunToken appends kind i's count c, preceded by the run token for the
// empty kinds next..i-1 if there are any.
func appendRunToken(dst []byte, next, i int, c int64) []byte {
	if i > next {
		dst = binary.AppendUvarint(dst, uint64(2*(i-next)-1))
	}
	return binary.AppendUvarint(dst, uint64(c)<<1)
}

// SetFromRunKey decodes a key produced by AppendRunKey into m, overwriting
// its counts in place; the universe size is m.Len(). It rejects every key
// AppendRunKey cannot produce — truncated or non-minimal tokens, a zero
// token, two adjacent runs, a trailing run, and kinds past the universe — so
// an accepted key re-encodes to the same bytes. On error m is left in an
// unspecified state.
func (m *Multiset) SetFromRunKey(key []byte) error {
	clear(m.counts)
	m.size = 0
	i, afterRun := 0, false
	for len(key) > 0 {
		tok, w := binary.Uvarint(key)
		switch {
		case w <= 0:
			return fmt.Errorf("multiset: truncated run-key token at kind %d", i)
		case w > 1 && key[w-1] == 0:
			return fmt.Errorf("multiset: non-minimal run-key token at kind %d", i)
		case tok == 0:
			return fmt.Errorf("multiset: zero run-key token at kind %d", i)
		}
		key = key[w:]
		if tok&1 == 1 {
			r := tok/2 + 1
			switch {
			case afterRun:
				return fmt.Errorf("multiset: adjacent runs at kind %d", i)
			case len(key) == 0:
				return fmt.Errorf("multiset: trailing run at kind %d", i)
			case r > uint64(len(m.counts)-i):
				return fmt.Errorf("multiset: run of %d at kind %d passes the universe of %d kinds", r, i, len(m.counts))
			}
			i += int(r)
			afterRun = true
			continue
		}
		if i >= len(m.counts) {
			return fmt.Errorf("multiset: count at kind %d passes the universe of %d kinds", i, len(m.counts))
		}
		c := int64(tok >> 1)
		m.counts[i] = c
		m.size += c
		i++
		afterRun = false
	}
	return nil
}

// Hash64 is the 64-bit FNV-1a hash of a state key. The model checker's
// sharded interner uses it both as the hash-table key and (via its low bits)
// as the shard selector; it is a fixed function of the key bytes, so shard
// assignment is stable across runs and worker counts.
func Hash64(key []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// String renders the multiset as {i:count, ...} over the support.
func (m *Multiset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d:%d", i, c)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Format renders the multiset using the provided kind names, e.g.
// "{x:2, y:1}". Kinds without a name fall back to their index.
func (m *Multiset) Format(names []string) string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		if i < len(names) {
			fmt.Fprintf(&sb, "%s:%d", names[i], c)
		} else {
			fmt.Fprintf(&sb, "%d:%d", i, c)
		}
	}
	sb.WriteByte('}')
	return sb.String()
}

// Enumerate calls fn for every multiset over n kinds with exactly total
// elements, in lexicographic order of count vectors. The multiset passed to
// fn is reused between calls; clone it to retain it. Enumerate is the
// workhorse of the exact experiments, which quantify over "all initial
// configurations with |C| = m".
func Enumerate(n int, total int64, fn func(*Multiset)) {
	if n == 0 {
		if total == 0 {
			fn(New(0))
		}
		return
	}
	m := New(n)
	var rec func(i int, remaining int64)
	rec = func(i int, remaining int64) {
		if i == n-1 {
			m.Set(i, remaining)
			fn(m)
			m.Set(i, 0)
			return
		}
		for c := int64(0); c <= remaining; c++ {
			m.Set(i, c)
			rec(i+1, remaining-c)
		}
		m.Set(i, 0)
	}
	rec(0, total)
}

// NumCompositions returns the number of multisets over n kinds with the
// given total, i.e. C(total+n-1, n-1), saturating at math.MaxInt64 on
// overflow. Callers use it to bound exhaustive enumeration.
func NumCompositions(n int, total int64) int64 {
	if n == 0 {
		if total == 0 {
			return 1
		}
		return 0
	}
	// Compute C(total+n-1, n-1) with overflow saturation.
	const saturated = int64(1) << 62
	result := int64(1)
	k := int64(n - 1)
	m := total + k
	if k > m-k {
		k = m - k
	}
	for i := int64(1); i <= k; i++ {
		if result > saturated/(m-k+i) {
			return saturated
		}
		result = result * (m - k + i) / i
	}
	return result
}
