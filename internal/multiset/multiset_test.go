package multiset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsEmpty(t *testing.T) {
	m := New(5)
	if m.Size() != 0 {
		t.Fatalf("Size() = %d, want 0", m.Size())
	}
	if m.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", m.Len())
	}
	for i := 0; i < 5; i++ {
		if m.Count(i) != 0 {
			t.Fatalf("Count(%d) = %d, want 0", i, m.Count(i))
		}
	}
}

func TestFromCountsCopies(t *testing.T) {
	counts := []int64{1, 2, 3}
	m := FromCounts(counts)
	counts[0] = 99
	if m.Count(0) != 1 {
		t.Fatalf("FromCounts shares the caller's slice: Count(0) = %d", m.Count(0))
	}
	if m.Size() != 6 {
		t.Fatalf("Size() = %d, want 6", m.Size())
	}
}

func TestFromCountsPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromCounts accepted a negative count")
		}
	}()
	FromCounts([]int64{1, -1})
}

func TestSingleton(t *testing.T) {
	m := Singleton(4, 2)
	if m.Size() != 1 || m.Count(2) != 1 {
		t.Fatalf("Singleton(4,2) = %v", m)
	}
}

func TestSetAndAdd(t *testing.T) {
	m := New(3)
	m.Set(0, 4)
	m.Add(1, 2)
	m.Add(0, -1)
	if got := m.Counts(); got[0] != 3 || got[1] != 2 || got[2] != 0 {
		t.Fatalf("counts = %v", got)
	}
	if m.Size() != 5 {
		t.Fatalf("Size() = %d, want 5", m.Size())
	}
}

func TestAddPanicsOnUnderflow(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Add allowed a negative multiplicity")
		}
	}()
	m.Add(0, -1)
}

func TestMove(t *testing.T) {
	m := FromCounts([]int64{2, 0})
	m.Move(0, 1)
	if m.Count(0) != 1 || m.Count(1) != 1 {
		t.Fatalf("after Move: %v", m)
	}
	if m.Size() != 2 {
		t.Fatalf("Move changed the size to %d", m.Size())
	}
}

func TestMovePanicsOnEmpty(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Move from an empty kind did not panic")
		}
	}()
	m.Move(0, 1)
}

func TestSwap(t *testing.T) {
	m := FromCounts([]int64{3, 7})
	m.Swap(0, 1)
	if m.Count(0) != 7 || m.Count(1) != 3 {
		t.Fatalf("after Swap: %v", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromCounts([]int64{1, 2})
	c := m.Clone()
	c.Add(0, 5)
	if m.Count(0) != 1 {
		t.Fatal("Clone shares storage with the original")
	}
	if !m.Equal(FromCounts([]int64{1, 2})) {
		t.Fatal("original mutated by clone edit")
	}
}

func TestEqualAndLeq(t *testing.T) {
	a := FromCounts([]int64{1, 2, 3})
	b := FromCounts([]int64{1, 2, 3})
	c := FromCounts([]int64{2, 2, 3})
	d := FromCounts([]int64{0, 2, 3})
	if !a.Equal(b) {
		t.Fatal("a should equal b")
	}
	if a.Equal(c) {
		t.Fatal("a should not equal c")
	}
	if !a.Leq(c) {
		t.Fatal("a ≤ c should hold")
	}
	if !d.Leq(a) {
		t.Fatal("d ≤ a should hold")
	}
	if c.Leq(a) {
		t.Fatal("c ≤ a should not hold")
	}
	if a.Leq(New(2)) {
		t.Fatal("multisets over different universes are incomparable")
	}
}

func TestAddAllSubAll(t *testing.T) {
	a := FromCounts([]int64{1, 2})
	b := FromCounts([]int64{3, 4})
	a.AddAll(b)
	if !a.Equal(FromCounts([]int64{4, 6})) {
		t.Fatalf("AddAll: %v", a)
	}
	a.SubAll(b)
	if !a.Equal(FromCounts([]int64{1, 2})) {
		t.Fatalf("SubAll: %v", a)
	}
}

func TestSubAllPanicsOnUnderflow(t *testing.T) {
	a := FromCounts([]int64{1})
	b := FromCounts([]int64{2})
	defer func() {
		if recover() == nil {
			t.Fatal("SubAll underflow did not panic")
		}
	}()
	a.SubAll(b)
}

func TestSupportAndIsZeroOn(t *testing.T) {
	m := FromCounts([]int64{0, 3, 0, 1})
	sup := m.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("Support() = %v", sup)
	}
	if !m.IsZeroOn([]int{0, 2}) {
		t.Fatal("IsZeroOn(0,2) should hold")
	}
	if m.IsZeroOn([]int{0, 1}) {
		t.Fatal("IsZeroOn(0,1) should not hold")
	}
}

func TestCountOf(t *testing.T) {
	m := FromCounts([]int64{1, 2, 4})
	if got := m.CountOf([]int{0, 2}); got != 5 {
		t.Fatalf("CountOf = %d, want 5", got)
	}
}

func TestKeyDistinguishesConfigurations(t *testing.T) {
	a := FromCounts([]int64{1, 0, 2})
	b := FromCounts([]int64{0, 1, 2})
	c := FromCounts([]int64{1, 0, 2})
	if a.Key() == b.Key() {
		t.Fatal("distinct multisets share a key")
	}
	if a.Key() != c.Key() {
		t.Fatal("equal multisets have different keys")
	}
}

// TestSetFromKeyInvertsAppendKey: dense keys decode back to the multiset,
// over a reused target holding other counts, and every byte string
// AppendKey cannot produce is rejected.
func TestSetFromKeyInvertsAppendKey(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dec := FromCounts([]int64{9, 9, 9, 9})
	for trial := 0; trial < 200; trial++ {
		counts := make([]int64, 4)
		for i := range counts {
			counts[i] = rng.Int63n(1 << uint(rng.Intn(40)))
		}
		m := FromCounts(counts)
		if err := dec.SetFromKey(m.AppendKey(nil)); err != nil || !dec.Equal(m) {
			t.Fatalf("key of %v decodes to %v (err %v)", m, dec, err)
		}
	}
	for _, bad := range []struct {
		name string
		key  []byte
	}{
		{"truncated varint", []byte{2, 0, 0x80}},
		{"too few kinds", []byte{2, 0, 4}},
		{"non-minimal varint", []byte{2, 0, 0x84, 0, 6}},
		{"negative count", []byte{2, 1, 4, 6}},
		{"bytes past the last kind", []byte{2, 0, 4, 6, 0}},
	} {
		if err := dec.SetFromKey(bad.key); err == nil {
			t.Fatalf("%s: key %x over 4 kinds accepted as %v", bad.name, bad.key, dec)
		}
	}
}

func TestStringAndFormat(t *testing.T) {
	m := FromCounts([]int64{2, 0, 1})
	if got := m.String(); got != "{0:2, 2:1}" {
		t.Fatalf("String() = %q", got)
	}
	if got := m.Format([]string{"x", "y", "z"}); got != "{x:2, z:1}" {
		t.Fatalf("Format() = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Fatalf("empty String() = %q", got)
	}
}

func TestEnumerateCountsMatchesFormula(t *testing.T) {
	cases := []struct {
		n     int
		total int64
	}{
		{1, 0}, {1, 5}, {2, 3}, {3, 4}, {4, 3}, {5, 2},
	}
	for _, tc := range cases {
		var count int64
		Enumerate(tc.n, tc.total, func(m *Multiset) {
			if m.Size() != tc.total {
				t.Fatalf("Enumerate(%d,%d) produced size %d", tc.n, tc.total, m.Size())
			}
			count++
		})
		if want := NumCompositions(tc.n, tc.total); count != want {
			t.Fatalf("Enumerate(%d,%d) produced %d multisets, want %d", tc.n, tc.total, count, want)
		}
	}
}

func TestEnumerateDistinct(t *testing.T) {
	seen := make(map[string]bool)
	Enumerate(3, 4, func(m *Multiset) {
		k := m.Key()
		if seen[k] {
			t.Fatalf("duplicate multiset %v", m)
		}
		seen[k] = true
	})
}

func TestEnumerateZeroKinds(t *testing.T) {
	var count int
	Enumerate(0, 0, func(m *Multiset) { count++ })
	if count != 1 {
		t.Fatalf("Enumerate(0,0) yielded %d multisets, want 1", count)
	}
	Enumerate(0, 3, func(m *Multiset) { count++ })
	if count != 1 {
		t.Fatal("Enumerate(0,3) should yield nothing")
	}
}

func TestNumCompositionsSmall(t *testing.T) {
	if got := NumCompositions(2, 3); got != 4 {
		t.Fatalf("NumCompositions(2,3) = %d, want 4", got)
	}
	if got := NumCompositions(4, 0); got != 1 {
		t.Fatalf("NumCompositions(4,0) = %d, want 1", got)
	}
	if got := NumCompositions(0, 1); got != 0 {
		t.Fatalf("NumCompositions(0,1) = %d, want 0", got)
	}
}

func TestNumCompositionsSaturates(t *testing.T) {
	got := NumCompositions(50, 1_000_000)
	if got < (int64(1) << 61) {
		t.Fatalf("NumCompositions should saturate for huge inputs, got %d", got)
	}
}

// Property: AddAll then SubAll is the identity.
func TestQuickAddSubRoundTrip(t *testing.T) {
	f := func(av, bv [6]uint8) bool {
		ac := make([]int64, 6)
		bc := make([]int64, 6)
		for i := range ac {
			ac[i] = int64(av[i])
			bc[i] = int64(bv[i])
		}
		a := FromCounts(ac)
		orig := a.Clone()
		b := FromCounts(bc)
		a.AddAll(b)
		a.SubAll(b)
		return a.Equal(orig) && a.Size() == orig.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Leq is a partial order compatible with AddAll.
func TestQuickLeqMonotone(t *testing.T) {
	f := func(av, bv [5]uint8) bool {
		ac := make([]int64, 5)
		bc := make([]int64, 5)
		for i := range ac {
			ac[i] = int64(av[i])
			bc[i] = int64(bv[i])
		}
		a := FromCounts(ac)
		b := FromCounts(bc)
		sum := a.Clone()
		sum.AddAll(b)
		return a.Leq(sum) && b.Leq(sum) && a.Leq(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Key is injective on random small multisets.
func TestQuickKeyInjective(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	seen := make(map[string]*Multiset)
	for trial := 0; trial < 2000; trial++ {
		counts := make([]int64, 7)
		for i := range counts {
			counts[i] = int64(rng.Intn(9))
		}
		m := FromCounts(counts)
		if prev, ok := seen[m.Key()]; ok && !prev.Equal(m) {
			t.Fatalf("key collision between %v and %v", prev, m)
		}
		seen[m.Key()] = m
	}
}

func BenchmarkCloneAndMutate(b *testing.B) {
	m := FromCounts(make([]int64, 64))
	m.Set(0, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Move(0, 1)
	}
}

func BenchmarkKey(b *testing.B) {
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i * 3)
	}
	m := FromCounts(counts)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = m.Key()
	}
}
