package align

import (
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/perf"
)

// WFAEdit computes the global edit distance between a and b with the
// wavefront algorithm (the paper's [17], unit-cost variant): wavefronts of
// furthest-reaching offsets per diagonal, alternating Extend (follow exact
// matches down a diagonal) and Next (grow every diagonal by one error).
// It is the CPU baseline of Fig. 9 (WFA2-lib stand-in) and the algorithmic
// core that GWFA and TSU build on.
func WFAEdit(a, b []byte, probe *perf.Probe) int {
	n, m := len(a), len(b)
	if n == 0 {
		return m
	}
	if m == 0 {
		return n
	}
	ca, cb := bio.Encode2Bit(a), bio.Encode2Bit(b)
	goalK := n - m // diagonal k = i - j
	as := perf.NewAddrSpace()
	wfBase := as.Alloc((n + m + 1) * 4)

	// wavefront[k+offsetBias] = furthest i on diagonal k, -1 if unreached.
	bias := m
	cur := make([]int, n+m+1)
	next := make([]int, n+m+1)
	for i := range cur {
		cur[i] = -1
	}
	lo, hi := 0, 0
	cur[bias] = 0

	extend := func(wf []int, k int) {
		i := wf[k+bias]
		j := i - k
		for i < n && j < m && ca[i] == cb[j] {
			probe.TakeBranch(0x90, true)
			probe.Load(uintptr(wfBase)+uintptr(i), 1)
			i++
			j++
		}
		probe.TakeBranch(0x90, false)
		probe.Op(perf.ScalarInt, 2)
		wf[k+bias] = i
	}

	for s := 0; ; s++ {
		// Extend every live diagonal.
		for k := lo; k <= hi; k++ {
			if cur[k+bias] >= 0 {
				extend(cur, k)
			}
		}
		// Goal: bottom-right corner reached.
		if goalK >= lo && goalK <= hi && cur[goalK+bias] >= n {
			probe.TakeBranch(0x91, true)
			return s
		}
		probe.TakeBranch(0x91, false)

		// Next: grow the wavefront by one error.
		nlo, nhi := lo-1, hi+1
		if nlo < -m {
			nlo = -m
		}
		if nhi > n {
			nhi = n
		}
		for k := nlo; k <= nhi; k++ {
			best := -1
			if k-1 >= lo && k-1 <= hi && cur[k-1+bias] >= 0 {
				best = cur[k-1+bias] + 1 // deletion from k-1
			}
			if k >= lo && k <= hi && cur[k+bias] >= 0 && cur[k+bias]+1 > best {
				best = cur[k+bias] + 1 // mismatch
			}
			if k+1 >= lo && k+1 <= hi && cur[k+1+bias] >= 0 && cur[k+1+bias] > best {
				best = cur[k+1+bias] // insertion from k+1
			}
			if best > n {
				best = n
			}
			if best >= 0 && best-k > m {
				best = m + k
			}
			if best >= 0 && best-k < 0 {
				best = -1 // off the matrix
			}
			next[k+bias] = best
			probe.Op(perf.ScalarInt, 6)
			probe.Store(uintptr(wfBase)+uintptr((k+bias)*4), 4)
		}
		lo, hi = nlo, nhi
		cur, next = next, cur
	}
}
