package protocol

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/multiset"
)

// Stepper precomputes a (q, r) → transitions index so that enabled-
// transition queries cost O(support² · log |Q|) instead of O(|δ|). Converted
// protocols (§7.3) have hundreds of thousands of transitions but only a
// handful of occupied states at any time, which makes the index the
// difference between seconds and hours in simulation and model checking.
//
// A Stepper is read-only after NewStepper and safe for concurrent use.
type Stepper struct {
	p *Protocol
	// rows[q] lists the pairs (q, r) that have non-silent transitions, in
	// increasing r; each pair's transitions are trans[lo:hi], in
	// p.Transitions order.
	rows  [][]pairSpan
	trans []Transition
}

type pairSpan struct{ r, lo, hi int32 }

// NewStepper builds the index for p.
func NewStepper(p *Protocol) *Stepper {
	trans := make([]Transition, 0, len(p.Transitions))
	for _, t := range p.Transitions {
		if !t.IsSilent() {
			trans = append(trans, t)
		}
	}
	// The stable sort keeps p.Transitions order within each pair.
	slices.SortStableFunc(trans, func(a, b Transition) int {
		if a.Q != b.Q {
			return int(a.Q - b.Q)
		}
		return int(a.R - b.R)
	})
	s := &Stepper{p: p, rows: make([][]pairSpan, len(p.States)), trans: trans}
	for lo := 0; lo < len(trans); {
		q, r := trans[lo].Q, trans[lo].R
		hi := lo + 1
		for hi < len(trans) && trans[hi].Q == q && trans[hi].R == r {
			hi++
		}
		s.rows[q] = append(s.rows[q], pairSpan{r: r, lo: int32(lo), hi: int32(hi)})
		lo = hi
	}
	return s
}

// Protocol returns the indexed protocol.
func (s *Stepper) Protocol() *Protocol { return s.p }

// pair returns the non-silent transitions with initiator q and responder r,
// in p.Transitions order.
func (s *Stepper) pair(q, r int) []Transition {
	row := s.rows[q]
	i, found := slices.BinarySearchFunc(row, r, func(e pairSpan, r int) int { return int(e.r) - r })
	if !found {
		return nil
	}
	return s.trans[row[i].lo:row[i].hi]
}

// EnabledTransitions returns the non-silent transitions enabled in c, pair
// by pair: initiators in increasing state order, then responders in
// increasing state order, then p.Transitions order.
func (s *Stepper) EnabledTransitions(c *multiset.Multiset) []Transition {
	support := c.Support()
	var out []Transition
	for _, q := range support {
		for _, r := range support {
			if q == r && c.Count(q) < 2 {
				continue
			}
			out = append(out, s.pair(q, r)...)
		}
	}
	return out
}

// Successors returns the distinct configurations reachable from c in one
// transition, in the order and with the dedup of AppendSuccessorKeys. c is
// not modified.
func (s *Stepper) Successors(c *multiset.Multiset) []*multiset.Multiset {
	keys, ends := s.AppendSuccessorKeys(c.Clone(), nil, nil)
	out := make([]*multiset.Multiset, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = multiset.New(c.Len())
		if err := out[i].SetFromRunKey(keys[start:end]); err != nil {
			panic(fmt.Sprintf("protocol: successor key does not decode: %v", err))
		}
		start = end
	}
	return out
}

// dedupSlots is the size of AppendSuccessorKeys' on-stack dedup table; a
// configuration with more than half as many distinct successors moves the
// table to the heap.
const dedupSlots = 256

// AppendSuccessorKeys appends to dst the run-length key (AppendRunKey) of
// every distinct configuration reachable from c in one transition, and to
// ends the end offset in dst of each key; the first key starts at len(dst)
// on entry. Keys come in EnabledTransitions order, keeping the first
// transition that reaches each configuration. Silent transitions, the only
// ones that leave c unchanged, are not indexed, so c itself is never
// emitted.
//
// Each transition is fired on c in place and undone once its key is
// written, so a successor costs O(support) time and no allocation; c is
// restored before the call returns, but must not be read concurrently
// while it runs.
func (s *Stepper) AppendSuccessorKeys(c *multiset.Multiset, dst []byte, ends []int) ([]byte, []int) {
	var supportBuf, kindsBuf [32]int
	support := c.AppendSupport(supportBuf[:0])
	var slotsBuf [dedupSlots]int32
	seen := keySet{slots: slotsBuf[:], base: len(dst), first: len(ends)}
	for _, q := range support {
		for _, r := range support {
			if q == r && c.Count(q) < 2 {
				continue
			}
			for _, t := range s.pair(q, r) {
				tq, tr, tq2, tr2 := int(t.Q), int(t.R), int(t.Q2), int(t.R2)
				// Kinds a successor occupies: c's support plus whichever
				// of the two products c had none of.
				kinds := support
				if c.Count(tq2) == 0 || c.Count(tr2) == 0 {
					kinds = insertKinds(append(kindsBuf[:0], support...), tq2, tr2)
				}
				c.Add(tq, -1)
				c.Add(tr, -1)
				c.Add(tq2, 1)
				c.Add(tr2, 1)
				mark := len(dst)
				dst = c.AppendRunKeyOn(dst, kinds)
				c.Add(tq2, -1)
				c.Add(tr2, -1)
				c.Add(tq, 1)
				c.Add(tr, 1)
				h := multiset.Hash64(dst[mark:])
				if seen.has(dst, ends, dst[mark:], h) {
					dst = dst[:mark]
					continue
				}
				ends = append(ends, len(dst))
				seen.add(dst, ends, h)
			}
		}
	}
	return dst, ends
}

// insertKinds inserts a and b into the sorted kinds, skipping any already
// present.
func insertKinds(kinds []int, a, b int) []int {
	for _, k := range [2]int{a, b} {
		i, found := slices.BinarySearch(kinds, k)
		if !found {
			kinds = slices.Insert(kinds, i, k)
		}
	}
	return kinds
}

// keySet is an open-addressing hash set over the keys AppendSuccessorKeys
// has emitted: slots hold 1 + the key's index counted from ends[first], or 0
// when empty. Keys are read back from dst, so the set stores no bytes.
type keySet struct {
	slots       []int32
	base, first int // len(dst) and len(ends) on entry
	n           int
}

// key returns the i-th emitted key.
func (k *keySet) key(dst []byte, ends []int, i int) []byte {
	start := k.base
	if i > 0 {
		start = ends[k.first+i-1]
	}
	return dst[start:ends[k.first+i]]
}

// has reports whether key, whose hash is h, has been emitted already.
func (k *keySet) has(dst []byte, ends []int, key []byte, h uint64) bool {
	mask := uint64(len(k.slots) - 1)
	for i := h & mask; k.slots[i] != 0; i = (i + 1) & mask {
		if bytes.Equal(k.key(dst, ends, int(k.slots[i]-1)), key) {
			return true
		}
	}
	return false
}

// add inserts the last emitted key, whose hash is h, doubling the table at
// half load.
func (k *keySet) add(dst []byte, ends []int, h uint64) {
	k.n++
	if 2*k.n > len(k.slots) {
		k.slots = make([]int32, 2*len(k.slots))
		for i := 0; i < k.n-1; i++ {
			k.place(i, multiset.Hash64(k.key(dst, ends, i)))
		}
	}
	k.place(k.n-1, h)
}

// place stores key index i, whose hash is h, in the first free slot.
func (k *keySet) place(i int, h uint64) {
	mask := uint64(len(k.slots) - 1)
	j := h & mask
	for k.slots[j] != 0 {
		j = (j + 1) & mask
	}
	k.slots[j] = int32(i + 1)
}
