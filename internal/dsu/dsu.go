// Package dsu provides the disjoint-set union (union-find) structure and
// the atomic bitvector (the paper's [51]) that seqwish's transclosure kernel
// relies on.
package dsu

import "sync/atomic"

// DSU is a union-find structure with path compression and union by rank.
type DSU struct {
	parent []int32
	rank   []int8
}

// New returns a DSU over n singleton elements.
func New(n int) *DSU {
	d := &DSU{parent: make([]int32, n), rank: make([]int8, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x's set.
func (d *DSU) Find(x int) int {
	root := x
	for int(d.parent[root]) != root {
		root = int(d.parent[root])
	}
	// Path compression.
	for int(d.parent[x]) != root {
		d.parent[x], x = int32(root), int(d.parent[x])
	}
	return root
}

// Union merges the sets of a and b; it returns true if they were distinct.
func (d *DSU) Union(a, b int) bool {
	ra, rb := d.Find(a), d.Find(b)
	if ra == rb {
		return false
	}
	if d.rank[ra] < d.rank[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = int32(ra)
	if d.rank[ra] == d.rank[rb] {
		d.rank[ra]++
	}
	return true
}

// Same reports whether a and b are in the same set.
func (d *DSU) Same(a, b int) bool { return d.Find(a) == d.Find(b) }

// Len returns the number of elements.
func (d *DSU) Len() int { return len(d.parent) }

// AtomicBitvector is a lock-free concurrent bitset. Seqwish uses one to mark
// characters already swept into a transitive closure so parallel workers
// never process a character twice.
type AtomicBitvector struct {
	words []uint64
	n     int
}

// NewAtomicBitvector returns an all-zero bitvector of n bits.
func NewAtomicBitvector(n int) *AtomicBitvector {
	return &AtomicBitvector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *AtomicBitvector) Len() int { return b.n }

// Get returns bit i.
func (b *AtomicBitvector) Get(i int) bool {
	return atomic.LoadUint64(&b.words[i>>6])&(1<<uint(i&63)) != 0
}

// Set sets bit i and reports whether it was previously clear (i.e. whether
// this call won the race to set it).
func (b *AtomicBitvector) Set(i int) bool {
	mask := uint64(1) << uint(i&63)
	for {
		old := atomic.LoadUint64(&b.words[i>>6])
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(&b.words[i>>6], old, old|mask) {
			return true
		}
	}
}

// Count returns the number of set bits.
func (b *AtomicBitvector) Count() int {
	n := 0
	for i := range b.words {
		n += popcount(atomic.LoadUint64(&b.words[i]))
	}
	return n
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
