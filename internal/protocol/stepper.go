package protocol

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/multiset"
)

// Stepper is a protocol's (q, r) → transitions index: the one grouping of δ
// by ordered state pair that the explorer and every sampler read. Under the
// paper's uniform random-pair scheduler one step draws an ordered pair of
// agents and fires one of its state pair's candidate transitions uniformly,
// so each pair keeps all of its candidates in p.Transitions order, silent
// ones included, and beside them its non-silent candidates, the ones that
// change a configuration.
//
// Enabled-transition queries through the index cost O(support² · log |Q|)
// instead of O(|δ|). Converted protocols (§7.3) have hundreds of thousands
// of transitions but only a handful of occupied states at any time, which
// makes the index the difference between seconds and hours in simulation
// and model checking.
//
// A Stepper is read-only after NewStepper and safe for concurrent use.
type Stepper struct {
	p *Protocol
	// The pairs with initiator q are spans[row[q]:row[q+1]], in increasing
	// r. Pair i's candidates are cands[spans[i].lo:spans[i+1].lo] and its
	// non-silent candidates fire[spans[i].flo:spans[i+1].flo]; a sentinel
	// span closes the last pair. fire is cands when δ has no silent
	// transition.
	row   []int32
	spans []pairSpan
	cands []Transition
	fire  []Transition
}

type pairSpan struct{ r, lo, flo int32 }

// NewStepper builds the index for p in O(|δ| + |Q|).
func NewStepper(p *Protocol) *Stepper {
	n := len(p.States)
	cands := sortByPair(p.Transitions, n)
	s := &Stepper{p: p, row: make([]int32, n+1), cands: cands, fire: cands}
	pairs := 0
	for i, t := range cands {
		if i == 0 || t.Q != cands[i-1].Q || t.R != cands[i-1].R {
			pairs++
		}
	}
	s.spans = make([]pairSpan, 0, pairs+1)
	nf := 0
	for i, t := range cands {
		if i == 0 || t.Q != cands[i-1].Q || t.R != cands[i-1].R {
			s.spans = append(s.spans, pairSpan{r: t.R, lo: int32(i), flo: int32(nf)})
			s.row[t.Q+1]++
		}
		if !t.IsSilent() {
			nf++
		}
	}
	s.spans = append(s.spans, pairSpan{lo: int32(len(cands)), flo: int32(nf)})
	for q := 1; q <= n; q++ {
		s.row[q] += s.row[q-1]
	}
	if nf < len(cands) {
		s.fire = make([]Transition, 0, nf)
		for _, t := range cands {
			if !t.IsSilent() {
				s.fire = append(s.fire, t)
			}
		}
	}
	return s
}

// sortByPair returns a copy of ts, whose states are below n, ordered by
// (Q, R) with ts order kept within a pair: two stable counting sorts, by
// responder and then by initiator. The first sorts a permutation of ts, so
// the copy the second scatters into is the only one made.
func sortByPair(ts []Transition, n int) []Transition {
	next := make([]int, n+1)
	for _, t := range ts {
		next[t.R+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	byR := make([]int32, len(ts))
	for k, t := range ts {
		byR[next[t.R]] = int32(k)
		next[t.R]++
	}
	clear(next)
	for _, t := range ts {
		next[t.Q+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	out := make([]Transition, len(ts))
	for _, k := range byR {
		t := ts[k]
		out[next[t.Q]] = t
		next[t.Q]++
	}
	return out
}

// Protocol returns the indexed protocol.
func (s *Stepper) Protocol() *Protocol { return s.p }

// span returns the index in spans of the pair (q, r), or -1 when δ has no
// transition for it. It is a binary search over q's short row, not a map
// hash, because the per-step samplers make one per interaction.
func (s *Stepper) span(q, r int) int {
	lo, end := int(s.row[q]), int(s.row[q+1])
	for hi := end; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if int(s.spans[mid].r) < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == end || int(s.spans[lo].r) != r {
		return -1
	}
	return lo
}

// seek returns the first index in [lo, end), within one initiator's row of
// spans, whose responder is at least r, or end if there is none. It gallops
// from lo, so a walk of increasing responders along a row costs O(log gap)
// per step instead of a binary search over the whole row.
func (s *Stepper) seek(lo, end, r int) int {
	if lo == end || int(s.spans[lo].r) >= r {
		return lo
	}
	// spans[lo].r < r throughout; hi ends at end or at a responder ≥ r.
	hi := lo + 1
	for step := 1; hi < end && int(s.spans[hi].r) < r; step <<= 1 {
		lo = hi
		hi = min(lo+2*step, end)
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(s.spans[mid].r) < r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Candidates returns every transition with initiator q and responder r,
// silent ones included, in p.Transitions order. The slice is the index's
// storage and must not be modified.
func (s *Stepper) Candidates(q, r int) []Transition {
	i := s.span(q, r)
	if i < 0 {
		return nil
	}
	return s.cands[s.spans[i].lo:s.spans[i+1].lo]
}

// Fire returns the non-silent transitions with initiator q and responder
// r, in p.Transitions order. The slice is the index's storage and must not
// be modified.
func (s *Stepper) Fire(q, r int) []Transition {
	i := s.span(q, r)
	if i < 0 {
		return nil
	}
	return s.fire[s.spans[i].flo:s.spans[i+1].flo]
}

// ReactivePair is an ordered state pair with at least one non-silent
// candidate: drawing it is the only way a uniform random-pair step changes
// a configuration. Over m agents at configuration C, one step fires each of
// its Fire transitions with probability
//
//	C(Q)·(C(R)−[Q=R]) / (m·(m−1)·Candidates)
//
// — the ordered agent pair times the uniform choice among the pair's
// candidates. The exact sampler realises this law integrally, the collision
// kernel tau-leaps it, and the fluid drift is its m → ∞ limit.
type ReactivePair struct {
	Q, R int
	// Fire is Stepper.Fire(Q, R): the index's storage, not to be modified.
	Fire []Transition
	// Candidates is len(Stepper.Candidates(Q, R)), silent ones included.
	Candidates int
}

// Reactive returns the reactive pairs in the order of their first
// transition in p.Transitions, silent or not: the order in which every
// sampler lays out its categories, so that its draws are reproducible. It
// builds the list on each call, in O(|δ| log |Q|).
func (s *Stepper) Reactive() []ReactivePair {
	n := 0
	for i := 0; i+1 < len(s.spans); i++ {
		if s.spans[i+1].flo > s.spans[i].flo {
			n++
		}
	}
	out := make([]ReactivePair, 0, n)
	seen := make([]bool, len(s.spans))
	for _, t := range s.p.Transitions {
		if len(out) == n {
			break
		}
		i := s.span(int(t.Q), int(t.R))
		if seen[i] {
			continue
		}
		seen[i] = true
		if lo, hi := s.spans[i].flo, s.spans[i+1].flo; hi > lo {
			out = append(out, ReactivePair{Q: int(t.Q), R: int(t.R), Fire: s.fire[lo:hi],
				Candidates: int(s.spans[i+1].lo - s.spans[i].lo)})
		}
	}
	return out
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
			out = append(out, s.Fire(q, r)...)
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
// transition that reaches each configuration. Only non-silent transitions
// fire: silent ones are the only ones that leave c unchanged, so c itself
// is never emitted.
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
		// One walk along q's row: support is sorted, so each responder's
		// pair lies at or after the previous one's.
		i, end := int(s.row[q]), int(s.row[q+1])
		for _, r := range support {
			if i = s.seek(i, end, r); i == end {
				break
			}
			if int(s.spans[i].r) != r || q == r && c.Count(q) < 2 {
				continue
			}
			for _, t := range s.fire[s.spans[i].flo:s.spans[i+1].flo] {
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
