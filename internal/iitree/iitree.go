// Package iitree implements an implicit interval tree (the paper's [36],
// Li's cgranges layout): intervals sorted by start position form an implicit
// balanced binary tree augmented with subtree maximum end positions, giving
// cache-friendly, allocation-free overlap queries. Seqwish's transclosure
// kernel uses it to find all alignment matches covering a character.
package iitree

import (
	"sort"

	"pangenomicsbench/internal/perf"
)

// Interval is a half-open range [Start, End) with a user payload.
type Interval struct {
	Start, End int64
	Data       int64
}

// Tree is an implicit interval tree. Build must be called after all Add
// calls and before any Overlap query.
type Tree struct {
	iv     []Interval
	maxEnd []int64
	k      int // levels of the implicit tree
	built  bool
	base   uint64
}

// New returns an empty tree.
func New() *Tree { return &Tree{base: perf.NewAddrSpace().Alloc(1 << 20)} }

// Add inserts an interval (invalid if Start >= End; silently ignored).
func (t *Tree) Add(start, end, data int64) {
	if start >= end {
		return
	}
	t.iv = append(t.iv, Interval{start, end, data})
	t.built = false
}

// Len returns the number of stored intervals.
func (t *Tree) Len() int { return len(t.iv) }

// Build sorts the intervals and computes the augmentation. It is the
// "high-performance sorting step" the paper notes these data structures
// require.
func (t *Tree) Build() {
	sort.Slice(t.iv, func(a, b int) bool {
		if t.iv[a].Start != t.iv[b].Start {
			return t.iv[a].Start < t.iv[b].Start
		}
		return t.iv[a].End < t.iv[b].End
	})
	n := len(t.iv)
	t.maxEnd = make([]int64, n)
	for i, iv := range t.iv {
		t.maxEnd[i] = iv.End
	}
	// Implicit binary tree: the node at index i on level l (leaves are
	// level 0 at even indices) covers the contiguous index range
	// [i-2^l+1, i+2^l). Compute subtree max ends bottom-up; nodes on the
	// incomplete right spine aggregate their partial right subtree by
	// scanning raw ends.
	var k int
	for k = 0; (1 << uint(k+1)) <= n; k++ {
	}
	for l := 1; l <= k; l++ {
		step := 1 << uint(l+1)
		half := 1 << uint(l-1)
		for i := (1 << uint(l)) - 1; i < n; i += step {
			end := t.maxEnd[i]
			if left := i - half; t.maxEnd[left] > end {
				end = t.maxEnd[left]
			}
			if right := i + half; right < n {
				if t.maxEnd[right] > end {
					end = t.maxEnd[right]
				}
			} else {
				hi := i + (1 << uint(l))
				if hi > n {
					hi = n
				}
				for j := i + 1; j < hi; j++ {
					if t.iv[j].End > end {
						end = t.iv[j].End
					}
				}
			}
			t.maxEnd[i] = end
		}
	}
	t.k = k
	t.built = true
}

// Overlap calls fn for every interval overlapping [start, end). fn may
// return false to stop early. Overlap panics if Build was not called.
func (t *Tree) Overlap(start, end int64, probe *perf.Probe, fn func(Interval) bool) {
	if !t.built {
		panic("iitree: Overlap called before Build")
	}
	n := len(t.iv)
	if n == 0 || start >= end {
		return
	}
	type frame struct {
		x, l int
		w    bool // whether the left subtree has been visited
	}
	// The traversal holds at most one frame per level plus the one being
	// expanded (k+1, k < 64), so the stack lives in a fixed array on the
	// goroutine stack instead of growing on the heap per query.
	var buf [64]frame
	stack := append(buf[:0], frame{(1 << uint(t.k)) - 1, t.k, false})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		probe.Op(perf.ScalarInt, 4)
		if f.l <= 2 {
			// Small subtree: scan its contiguous index range directly.
			lo := f.x - (1 << uint(f.l)) + 1
			if lo < 0 {
				lo = 0
			}
			hi := f.x + (1 << uint(f.l))
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				probe.Load(uintptr(t.base)+uintptr(i*32), 32)
				if t.iv[i].Start >= end {
					probe.TakeBranch(0xe0, false)
					break
				}
				if t.iv[i].End > start {
					probe.TakeBranch(0xe0, true)
					if !fn(t.iv[i]) {
						return
					}
				}
			}
			continue
		}
		if !f.w { // push left subtree first if it can contain overlaps
			y := f.x - (1 << uint(f.l-1))
			stack = append(stack, frame{f.x, f.l, true})
			if y >= n || t.maxEnd[y] > start {
				probe.TakeBranch(0xe1, true)
				stack = append(stack, frame{y, f.l - 1, false})
			} else {
				probe.TakeBranch(0xe1, false)
			}
			continue
		}
		// Visit the node itself, then the right subtree. Nodes at or past n
		// do not exist and their right subtrees are entirely out of range.
		if f.x >= n {
			continue
		}
		probe.Load(uintptr(t.base)+uintptr(f.x*32), 32)
		if t.iv[f.x].Start >= end {
			continue // everything right of here starts too late
		}
		if t.iv[f.x].End > start {
			if !fn(t.iv[f.x]) {
				return
			}
		}
		if f.x+1 < n {
			stack = append(stack, frame{f.x + (1 << uint(f.l-1)), f.l - 1, false})
		}
	}
}

// CountOverlaps returns the number of intervals overlapping [start, end).
func (t *Tree) CountOverlaps(start, end int64, probe *perf.Probe) int {
	n := 0
	t.Overlap(start, end, probe, func(Interval) bool {
		n++
		return true
	})
	return n
}
