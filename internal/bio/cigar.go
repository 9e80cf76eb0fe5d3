package bio

import (
	"fmt"
	"strings"
)

// CigarOp is one alignment operation kind.
type CigarOp byte

// Alignment operation codes, matching SAM semantics.
const (
	CigarMatch    CigarOp = 'M' // alignment match or mismatch
	CigarIns      CigarOp = 'I' // insertion to the reference
	CigarDel      CigarOp = 'D' // deletion from the reference
	CigarEq       CigarOp = '=' // sequence match
	CigarX        CigarOp = 'X' // sequence mismatch
	CigarSoftClip CigarOp = 'S' // soft clip on the query
)

// CigarElem is a run of identical operations.
type CigarElem struct {
	Op  CigarOp
	Len int
}

// Cigar is an alignment description as a sequence of operation runs.
type Cigar []CigarElem

// Append adds n ops of kind op, merging with the trailing element when the
// kinds match.
func (c Cigar) Append(op CigarOp, n int) Cigar {
	if n <= 0 {
		return c
	}
	if len(c) > 0 && c[len(c)-1].Op == op {
		c[len(c)-1].Len += n
		return c
	}
	return append(c, CigarElem{op, n})
}

// String renders the CIGAR in SAM text form, e.g. "5=1X10=2D3=".
func (c Cigar) String() string {
	var b strings.Builder
	for _, e := range c {
		fmt.Fprintf(&b, "%d%c", e.Len, e.Op)
	}
	return b.String()
}

// QueryLen returns the number of query bases the CIGAR consumes.
func (c Cigar) QueryLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarMatch, CigarIns, CigarEq, CigarX, CigarSoftClip:
			n += e.Len
		}
	}
	return n
}

// RefLen returns the number of reference bases the CIGAR consumes.
func (c Cigar) RefLen() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarMatch, CigarDel, CigarEq, CigarX:
			n += e.Len
		}
	}
	return n
}

// Reverse reverses the CIGAR in place and returns it (used after tracebacks
// that walk end-to-start).
func (c Cigar) Reverse() Cigar {
	for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
		c[i], c[j] = c[j], c[i]
	}
	return c
}

// EditDistance returns the unit-cost edit distance implied by the CIGAR
// (X, I and D count 1 per base; = and M count 0 — callers that used M for
// both match and mismatch should prefer =/X CIGARs).
func (c Cigar) EditDistance() int {
	n := 0
	for _, e := range c {
		switch e.Op {
		case CigarX, CigarIns, CigarDel:
			n += e.Len
		}
	}
	return n
}
