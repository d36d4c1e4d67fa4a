package protocol

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// compactFixture builds a 3-state protocol with one real transition, one
// exact duplicate of it, a directly silent transition, a swap-silent
// transition (q, r ↦ r, q), and a second real transition.
func compactFixture(t *testing.T) *Protocol {
	t.Helper()
	b := NewBuilder("fixture")
	b.Input("a")
	b.Accepting("c")
	b.Transition("a", "a", "b", "a") // real
	b.Transition("a", "a", "b", "a") // duplicate
	b.Transition("b", "a", "b", "a") // silent (identical)
	b.Transition("b", "a", "a", "b") // silent (swapped)
	b.Transition("b", "b", "c", "c") // real
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompactTransitions(t *testing.T) {
	p := compactFixture(t)
	out, silent, dups, err := CompactTransitions(p)
	if err != nil {
		t.Fatal(err)
	}
	if silent != 2 || dups != 1 {
		t.Fatalf("got silent=%d dups=%d, want 2 and 1", silent, dups)
	}
	if len(out.Transitions) != 2 {
		t.Fatalf("kept %d transitions, want 2", len(out.Transitions))
	}
	if !reflect.DeepEqual(out.States, p.States) || !reflect.DeepEqual(out.Input, p.Input) ||
		!reflect.DeepEqual(out.Accepting, p.Accepting) {
		t.Fatal("compaction changed states, inputs or accepting set")
	}
	// The step relation is unchanged: successors agree on every small
	// configuration over the three states.
	for _, counts := range [][]int64{{2, 0, 0}, {1, 1, 0}, {0, 2, 0}, {2, 1, 1}} {
		c := p.NewConfig()
		for i, n := range counts {
			c.Add(i, n)
		}
		if c.Size() == 0 {
			continue
		}
		before := p.Successors(c)
		after := out.Successors(c)
		if len(before) != len(after) {
			t.Fatalf("config %v: successor counts diverge %d vs %d", counts, len(before), len(after))
		}
		seen := map[string]bool{}
		for _, s := range before {
			seen[s.Key()] = true
		}
		for _, s := range after {
			if !seen[s.Key()] {
				t.Fatalf("config %v: compacted protocol reaches unknown successor %v", counts, s)
			}
		}
	}
}

func TestCompactTransitionsNoop(t *testing.T) {
	b := NewBuilder("clean")
	b.Input("a")
	b.Transition("a", "a", "b", "a")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, silent, dups, err := CompactTransitions(p)
	if err != nil {
		t.Fatal(err)
	}
	if silent != 0 || dups != 0 || len(out.Transitions) != 1 {
		t.Fatalf("clean protocol was modified: silent=%d dups=%d kept=%d",
			silent, dups, len(out.Transitions))
	}
}

// compactByMap is the map-based dedup CompactTransitions used before the
// linear passes, kept as the oracle of the differential tests: it keeps
// the first occurrence of every non-silent transition, in order.
func compactByMap(ts []Transition) (kept []Transition, silent, duplicates int) {
	seen := make(map[Transition]bool, len(ts))
	for _, t := range ts {
		switch {
		case t.IsSilent():
			silent++
		case seen[t]:
			duplicates++
		default:
			seen[t] = true
			kept = append(kept, t)
		}
	}
	return kept, silent, duplicates
}

// randomTable returns n states and a transition table drawn from bytes:
// each 5-byte record is a kind and four indices. Kinds add a fresh
// transition, a silent one, a swap-silent one, or a copy of an earlier
// transition, so duplicates and both silent shapes all occur.
func randomTable(n int, data []byte) []Transition {
	var ts []Transition
	idx := func(b byte) int32 { return int32(int(b) % n) }
	for i := 0; i+4 < len(data); i += 5 {
		q, r, q2, r2 := idx(data[i+1]), idx(data[i+2]), idx(data[i+3]), idx(data[i+4])
		switch data[i] % 4 {
		case 0:
			ts = append(ts, Transition{Q: q, R: r, Q2: q2, R2: r2})
		case 1:
			ts = append(ts, Transition{Q: q, R: r, Q2: q, R2: r})
		case 2:
			ts = append(ts, Transition{Q: q, R: r, Q2: r, R2: q})
		default:
			if len(ts) == 0 {
				continue
			}
			ts = append(ts, ts[int(data[i+1])%len(ts)])
		}
	}
	return ts
}

// checkCompactAgainstOracle runs CompactTransitions on a protocol with n
// states and table ts, and requires the oracle's kept list and counts.
func checkCompactAgainstOracle(t *testing.T, n int, ts []Transition) {
	t.Helper()
	p := &Protocol{
		Name:        "random",
		States:      make([]string, n),
		Transitions: ts,
		Input:       []int{0},
		Accepting:   make([]bool, n),
	}
	for i := range p.States {
		p.States[i] = fmt.Sprintf("s%d", i)
	}
	out, silent, dups, err := CompactTransitions(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatalf("compacted protocol is invalid: %v", err)
	}
	want, wantSilent, wantDups := compactByMap(ts)
	if silent != wantSilent || dups != wantDups {
		t.Fatalf("silent=%d dups=%d, oracle %d and %d", silent, dups, wantSilent, wantDups)
	}
	if len(out.Transitions) != len(want) {
		t.Fatalf("kept %d transitions, oracle %d", len(out.Transitions), len(want))
	}
	for i := range want {
		if out.Transitions[i] != want[i] {
			t.Fatalf("kept[%d] = %+v, oracle %+v", i, out.Transitions[i], want[i])
		}
	}
}

// TestCompactTransitionsMatchesMapOracle is the differential test of the
// linear dedup: on random tables with silent, swap-silent and repeated
// transitions, it keeps exactly what the map-based algorithm kept, in the
// same order, reports the same counts, and returns a valid protocol.
func TestCompactTransitionsMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(6)
		if trial%10 == 0 {
			n = 50 + rng.Intn(300)
		}
		data := make([]byte, 5*rng.Intn(400))
		rng.Read(data)
		checkCompactAgainstOracle(t, n, randomTable(n, data))
	}
}

// FuzzCompactTransitions drives the differential check, output validity
// included, from fuzzed tables.
func FuzzCompactTransitions(f *testing.F) {
	f.Add(byte(3), []byte{0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 3, 0, 0, 0, 0, 2, 1, 0, 0, 0})
	f.Add(byte(1), []byte{1, 0, 0, 0, 0})
	f.Add(byte(200), []byte{0, 199, 3, 7, 9, 3, 0, 0, 0, 0, 0, 9, 7, 3, 199})
	f.Fuzz(func(t *testing.T, states byte, data []byte) {
		if len(data) > 5*512 {
			data = data[:5*512]
		}
		n := 1 + int(states)
		checkCompactAgainstOracle(t, n, randomTable(n, data))
	})
}
