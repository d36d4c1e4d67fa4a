package protocol_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/compile"
	"repro/internal/convert"
	"repro/internal/multiset"
	"repro/internal/popprog"
	"repro/internal/protocol"
)

// cloneSuccessors is the dense reference for the stepper's successor
// order: each enabled transition fired on its own clone, no-ops skipped,
// and duplicates dropped by Key, keeping the first.
func cloneSuccessors(s *protocol.Stepper, c *multiset.Multiset) []*multiset.Multiset {
	var out []*multiset.Multiset
	seen := make(map[string]bool)
	for _, t := range s.EnabledTransitions(c) {
		next := c.Clone()
		s.Protocol().Apply(next, t)
		if k := next.Key(); !next.Equal(c) && !seen[k] {
			seen[k] = true
			out = append(out, next)
		}
	}
	return out
}

// checkSuccessorKeys asserts the successor-key contract at c: the decoded
// AppendSuccessorKeys output equals cloneSuccessors and Stepper.Successors
// in order, equals Protocol.Successors as a set, and leaves c unchanged.
func checkSuccessorKeys(t *testing.T, s *protocol.Stepper, c *multiset.Multiset, label string) []*multiset.Multiset {
	t.Helper()
	before := c.Clone()
	prefix := []byte("prefix")
	keys, ends := s.AppendSuccessorKeys(c, prefix, []int{-1})
	if !c.Equal(before) || c.Size() != before.Size() {
		t.Fatalf("%s: AppendSuccessorKeys left %v, want %v", label, c, before)
	}
	if string(keys[:len(prefix)]) != string(prefix) || ends[0] != -1 {
		t.Fatalf("%s: AppendSuccessorKeys overwrote what dst or ends held", label)
	}
	var got []*multiset.Multiset
	start := len(prefix)
	for _, end := range ends[1:] {
		next := multiset.New(c.Len())
		if err := next.SetFromRunKey(keys[start:end]); err != nil {
			t.Fatalf("%s: key %x: %v", label, keys[start:end], err)
		}
		if string(next.AppendRunKey(nil)) != string(keys[start:end]) {
			t.Fatalf("%s: key %x is not the run-length key of %v", label, keys[start:end], next)
		}
		got = append(got, next)
		start = end
	}

	sameOrder := func(name string, want []*multiset.Multiset) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d successor keys, %s has %d", label, len(got), name, len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: successor %d is %v, %s has %v", label, i, got[i], name, want[i])
			}
		}
	}
	sameOrder("the clone loop", cloneSuccessors(s, c))
	sameOrder("Stepper.Successors", s.Successors(c))

	keySet := func(ms []*multiset.Multiset) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Key()
		}
		sort.Strings(out)
		return out
	}
	if g, w := keySet(got), keySet(s.Protocol().Successors(c)); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Fatalf("%s: successor set differs from Protocol.Successors:\n got %q\nwant %q", label, g, w)
	}
	return got
}

// randomStepperProtocol draws a protocol over 3–200 states with a few or a
// few thousand transitions, silent ones and repeats included.
func randomStepperProtocol(rng *rand.Rand) *protocol.Protocol {
	k := 3 + rng.Intn(198)
	p := &protocol.Protocol{Name: "random", Input: []int{0}, Accepting: make([]bool, k)}
	for i := 0; i < k; i++ {
		p.States = append(p.States, fmt.Sprintf("q%d", i))
		p.Accepting[i] = rng.Intn(2) == 0
	}
	n := 1 + rng.Intn(12)
	if rng.Intn(2) == 0 {
		n = 500 + rng.Intn(2500)
	}
	for i := 0; i < n; i++ {
		t := protocol.Transition{Q: int32(rng.Intn(k)), R: int32(rng.Intn(k)), Q2: int32(rng.Intn(k)), R2: int32(rng.Intn(k))}
		if rng.Intn(8) == 0 {
			t.Q2, t.R2 = t.R, t.Q // silent
		}
		p.Transitions = append(p.Transitions, t)
	}
	return p
}

// TestAppendSuccessorKeysConformance pins the successor-key contract on
// random protocols (configurations with up to 40 occupied states, counts
// up to 200, so multi-byte tokens and more than 128 distinct successors
// both occur) and on the converted figure1 protocol along a BFS from its
// leaderless initial configuration.
func TestAppendSuccessorKeysConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		p := randomStepperProtocol(rng)
		s := protocol.NewStepper(p)
		for j := 0; j < 5; j++ {
			c := p.NewConfig()
			for n := 1 + rng.Intn(40); n > 0; n-- {
				c.Add(rng.Intn(c.Len()), 1+rng.Int63n(200))
			}
			checkSuccessorKeys(t, s, c, fmt.Sprintf("trial %d config %d", trial, j))
		}
	}

	m, err := compile.Compile(popprog.Figure1Program())
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := convert.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	c, err := res.Protocol.InitialConfig(int64(res.NumPointers) + 1)
	if err != nil {
		t.Fatal(err)
	}
	s := protocol.NewStepper(res.Protocol)
	seen := map[string]bool{c.Key(): true}
	for queue := []*multiset.Multiset{c}; len(queue) > 0 && len(seen) < 400; queue = queue[1:] {
		for _, next := range checkSuccessorKeys(t, s, queue[0], "figure1 "+queue[0].String()) {
			if !seen[next.Key()] {
				seen[next.Key()] = true
				queue = append(queue, next)
			}
		}
	}
}

// TestStepperMatchesGrouping pins the pair index that the explorer and
// every sampler read against a map-based oracle. On random protocols with
// silent and duplicate transitions, Candidates returns exactly the
// transitions declared for each ordered state pair and Fire its non-silent
// ones, both in declaration order; Reactive lists the pairs with a
// non-silent candidate in order of first appearance, silent transitions
// counting towards it, with their candidate counts. Every fourth table
// draws no deliberate silent transition, so that most of those have none
// and the index keeps one list for both.
func TestStepperMatchesGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type pair struct{ q, r int }
	nonSilent := func(ts []protocol.Transition) []protocol.Transition {
		var out []protocol.Transition
		for _, tr := range ts {
			if !tr.IsSilent() {
				out = append(out, tr)
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		p := &protocol.Protocol{States: make([]string, n)}
		for i := rng.Intn(80); i > 0; i-- {
			tr := protocol.Transition{
				Q: int32(rng.Intn(n)), R: int32(rng.Intn(n)), Q2: int32(rng.Intn(n)), R2: int32(rng.Intn(n))}
			switch rng.Intn(4) {
			case 0:
				if trial%4 != 0 {
					tr.Q2, tr.R2 = tr.R, tr.Q // silent
				}
			case 1:
				if len(p.Transitions) > 0 {
					tr = p.Transitions[rng.Intn(len(p.Transitions))] // duplicate
				}
			}
			p.Transitions = append(p.Transitions, tr)
		}
		cands := make(map[pair][]protocol.Transition)
		var order []pair
		for _, tr := range p.Transitions {
			k := pair{int(tr.Q), int(tr.R)}
			if _, ok := cands[k]; !ok {
				order = append(order, k)
			}
			cands[k] = append(cands[k], tr)
		}
		var want []protocol.ReactivePair
		for _, k := range order {
			if fire := nonSilent(cands[k]); len(fire) > 0 {
				want = append(want, protocol.ReactivePair{Q: k.q, R: k.r, Fire: fire, Candidates: len(cands[k])})
			}
		}

		s := protocol.NewStepper(p)
		for q := 0; q < n; q++ {
			for r := 0; r < n; r++ {
				k := pair{q, r}
				if got := s.Candidates(q, r); !slices.Equal(got, cands[k]) {
					t.Fatalf("trial %d: Candidates(%d, %d) = %v, want %v", trial, q, r, got, cands[k])
				}
				if got, w := s.Fire(q, r), nonSilent(cands[k]); !slices.Equal(got, w) {
					t.Fatalf("trial %d: Fire(%d, %d) = %v, want %v", trial, q, r, got, w)
				}
			}
		}
		got := s.Reactive()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d reactive pairs, want %d", trial, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Q != w.Q || g.R != w.R || g.Candidates != w.Candidates || !slices.Equal(g.Fire, w.Fire) {
				t.Fatalf("trial %d: reactive pair %d is %+v, want %+v", trial, i, g, w)
			}
		}
	}
}

// sortByStateTwoCopies is the stepper's former ordering of δ, kept as the
// oracle of the one-copy sort: a stable counting sort into a full copy by
// responder (byInitiator false), then another into a second copy by
// initiator.
func sortByStateTwoCopies(ts []protocol.Transition, n int, byInitiator bool) []protocol.Transition {
	key := func(t protocol.Transition) int32 {
		if byInitiator {
			return t.Q
		}
		return t.R
	}
	next := make([]int, n+1)
	for _, t := range ts {
		next[key(t)+1]++
	}
	for i := 1; i <= n; i++ {
		next[i] += next[i-1]
	}
	out := make([]protocol.Transition, len(ts))
	for _, t := range ts {
		k := key(t)
		out[next[k]] = t
		next[k]++
	}
	return out
}

// TestStepperOrderMatchesTwoCopySort holds the index's transition order to
// the two-copy oracle on random protocols: the candidates of every pair,
// concatenated in (q, r) order, are the oracle's sorted table.
func TestStepperOrderMatchesTwoCopySort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		p := randomStepperProtocol(rng)
		n := len(p.States)
		want := sortByStateTwoCopies(sortByStateTwoCopies(p.Transitions, n, false), n, true)
		s := protocol.NewStepper(p)
		var got []protocol.Transition
		for q := 0; q < n; q++ {
			for r := 0; r < n; r++ {
				got = append(got, s.Candidates(q, r)...)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: index order differs from the two-copy sort", trial)
		}
	}
}
