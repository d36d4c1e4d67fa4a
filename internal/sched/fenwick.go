package sched

// fenwick is a binary-indexed tree over per-state agent counts. It supports
// point updates and "find the k-th agent" queries in O(log n), replacing an
// O(support) linear scan over the counts on the batched fast path.
//
// The tree is 1-based internally; the public API uses 0-based state indices
// like the rest of the repository.
type fenwick struct {
	tree []int64
	n    int
	// top is the largest power of two ≤ n, precomputed for find.
	top int
}

// newFenwick builds a tree over the given counts in O(n).
func newFenwick(counts []int64) *fenwick {
	f := &fenwick{}
	f.reset(len(counts), func(i int) int64 { return counts[i] })
	return f
}

// reset rebuilds the tree in place over n states whose counts count returns,
// in O(n); it allocates only when n outgrows the tree.
func (f *fenwick) reset(n int, count func(i int) int64) {
	if cap(f.tree) < n+1 {
		f.tree = make([]int64, n+1)
	}
	f.tree = f.tree[:n+1]
	clear(f.tree)
	f.n = n
	for f.top = 1; f.top*2 <= n; f.top *= 2 {
	}
	for i := 0; i < n; i++ {
		f.tree[i+1] += count(i)
		if j := (i + 1) + ((i + 1) & -(i + 1)); j <= n {
			f.tree[j] += f.tree[i+1]
		}
	}
}

// add adds delta to the count of state i.
func (f *fenwick) add(i int, delta int64) {
	for j := i + 1; j <= f.n; j += j & -j {
		f.tree[j] += delta
	}
}

// find returns the state holding the (target+1)-th agent in state order,
// i.e. the smallest i with prefix-sum(0..i) > target. Targets ≥ the total
// count return n−1; callers must pass target < total.
func (f *fenwick) find(target int64) int {
	pos := 0
	for bit := f.top; bit > 0; bit >>= 1 {
		if next := pos + bit; next <= f.n && f.tree[next] <= target {
			pos = next
			target -= f.tree[next]
		}
	}
	if pos >= f.n {
		pos = f.n - 1
	}
	return pos
}
