package fmindex

import (
	"fmt"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/perf"
)

// sentinel is the terminator code, smaller than every base code.
const sentinel = 0

// Index is an FM-Index over a DNA text supporting backward search (Count).
// The paper contrasts its memory-bandwidth-hungry occurrence-table accesses
// with GBWT's cache-friendly per-node records (§5.2).
type Index struct {
	n       int
	bwt     []byte     // codes 0(sentinel) + 1..5 (base code+1)
	counts  [7]int     // C table over codes
	occ     [][6]int32 // checkpoints every occRate positions
	occRate int
	addrOcc uint64
	addrBWT uint64
}

const defaultOccRate = 64

// New builds the index of text (bases A/C/G/T/N).
func New(text []byte) (*Index, error) {
	if len(text) == 0 {
		return nil, fmt.Errorf("fmindex: empty text")
	}
	n := len(text) + 1
	seq := make([]int32, n)
	for i, b := range text {
		seq[i] = int32(bio.Code(b)) + 1
	}
	seq[n-1] = sentinel
	sa := SuffixArrayInts(seq)

	idx := &Index{n: n, occRate: defaultOccRate}
	idx.bwt = make([]byte, n)
	for i, p := range sa {
		if p == 0 {
			idx.bwt[i] = byte(seq[n-1])
		} else {
			idx.bwt[i] = byte(seq[p-1])
		}
	}
	// C table.
	for _, c := range idx.bwt {
		idx.counts[c+1]++
	}
	for i := 1; i < len(idx.counts); i++ {
		idx.counts[i] += idx.counts[i-1]
	}
	// Occurrence checkpoints.
	nCheck := n/idx.occRate + 2
	idx.occ = make([][6]int32, nCheck)
	var running [6]int32
	for i := 0; i < n; i++ {
		if i%idx.occRate == 0 {
			idx.occ[i/idx.occRate] = running
		}
		running[idx.bwt[i]]++
	}
	idx.occ[(n-1)/idx.occRate+1] = running
	as := perf.NewAddrSpace()
	idx.addrBWT = as.Alloc(n)
	idx.addrOcc = as.Alloc(nCheck * 24)
	return idx, nil
}

// Len returns the indexed text length (excluding the sentinel).
func (x *Index) Len() int { return x.n - 1 }

// occAt returns the number of occurrences of code c in bwt[0:i).
func (x *Index) occAt(c byte, i int, probe *perf.Probe) int {
	ck := i / x.occRate
	probe.Load(uintptr(x.addrOcc)+uintptr(ck*24), 24)
	cnt := int(x.occ[ck][c])
	for p := ck * x.occRate; p < i; p++ {
		probe.Load(uintptr(x.addrBWT)+uintptr(p), 1)
		if x.bwt[p] == c {
			cnt++
		}
	}
	probe.Op(perf.ScalarInt, i-ck*x.occRate+2)
	return cnt
}

// SearchRange holds a suffix-array interval [Lo, Hi).
type SearchRange struct{ Lo, Hi int }

// Count returns the number of occurrences of pattern in the text via
// backward search, along with the final range.
func (x *Index) Count(pattern []byte, probe *perf.Probe) (int, SearchRange) {
	if len(pattern) == 0 {
		return 0, SearchRange{}
	}
	lo, hi := 0, x.n
	for i := len(pattern) - 1; i >= 0; i-- {
		c := byte(bio.Code(pattern[i])) + 1
		if bio.Code(pattern[i]) == bio.BaseN {
			return 0, SearchRange{} // N never matches
		}
		lo = x.counts[c] + x.occAt(c, lo, probe)
		hi = x.counts[c] + x.occAt(c, hi, probe)
		probe.Op(perf.ScalarInt, 4)
		probe.TakeBranch(0xc0, lo < hi)
		if lo >= hi {
			return 0, SearchRange{}
		}
	}
	return hi - lo, SearchRange{lo, hi}
}
