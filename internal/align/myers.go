package align

import (
	"fmt"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/perf"
)

// MaxMyersQuery is the maximum query length of the bitvector kernels. The
// paper notes GBV "bitvectors are restricted to 64 bits in the code"
// (GraphAligner slices long reads into chunks of this size), so a machine
// word holds one column.
const MaxMyersQuery = 64

// Peq is the match-mask table of Myers's algorithm: for each base code, a
// bitmask of the query positions holding that base.
type Peq [5]uint64

// NewPeq builds the match masks for query (len ≤ MaxMyersQuery).
func NewPeq(query []byte) (Peq, error) {
	var eq Peq
	if len(query) == 0 || len(query) > MaxMyersQuery {
		return eq, fmt.Errorf("align: Myers query length %d outside [1,%d]", len(query), MaxMyersQuery)
	}
	for j, b := range query {
		c := bio.Code(b)
		if c != bio.BaseN {
			eq[c] |= 1 << uint(j)
		}
	}
	return eq, nil
}

// myersState is one column state: the vertical positive/negative delta
// bitvectors and the score at the bottom (query end).
type myersState struct {
	vp, vn uint64
	score  int
}

func initialMyersState(m int) myersState {
	return myersState{vp: ones(m), vn: 0, score: m}
}

func ones(m int) uint64 {
	if m >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(m)) - 1
}

// step advances the column state by one reference base (Hyyrö's formulation
// of Myers's algorithm, search variant: the top boundary of every column is
// 0, so matches may start at any reference position).
func (s *myersState) step(eq uint64, m int, probe *perf.Probe) {
	xv := eq | s.vn
	xh := (((eq & s.vp) + s.vp) ^ s.vp) | eq
	hp := s.vn | ^(xh | s.vp)
	hn := s.vp & xh
	top := uint64(1) << uint(m-1)
	if hp&top != 0 {
		s.score++
	} else if hn&top != 0 {
		s.score--
	}
	hp <<= 1
	hn <<= 1
	s.vp = hn | ^(xv | hp)
	s.vn = hp & xv
	// The paper bins GBV's 64-bit word operations as scalar (§5.2: "GBV
	// bitvectors are restricted to 64 bits ... classified as scalar").
	probe.Op(perf.ScalarInt, 12)
	probe.TakeBranch(0x70, hp&(top<<1) != 0)
}

// Myers64 computes the semi-global edit distance of query (≤64 bp) against
// ref: the match may start at any reference position and must consume the
// whole query. It is the Seq2Seq ancestor of the GBV kernel.
func Myers64(ref, query []byte, probe *perf.Probe) (EditResult, error) {
	eq, err := NewPeq(query)
	if err != nil {
		return EditResult{}, err
	}
	m := len(query)
	st := initialMyersState(m)
	best := EditResult{Distance: st.score, EndRef: 0}
	for i, b := range ref {
		st.step(eq[bio.Code(b)], m, probe)
		if st.score < best.Distance {
			best = EditResult{Distance: st.score, EndRef: i + 1}
		}
	}
	return best, nil
}
