package align

import (
	"fmt"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// nodeMatrices holds one node's full dynamic-programming matrices. GSSW
// keeps H plus both affine gap matrices for every row of every node — the
// paper's §5.2 observation that "affine gap scoring triples the memory
// footprint" and §6.1's "GSSW stores all rows of the dynamic programming
// matrix" are both consequences of this storage.
type nodeMatrices struct {
	rows int // node sequence length
	cols int // query length + 1
	h    []int16
	d    []int16 // gap consuming reference (deletion state)
	ins  []int16 // gap consuming query (insertion state)
	base uint64  // synthetic address of h; d and ins follow
}

func (nm *nodeMatrices) at(m []int16, row, col int) int16 { return m[row*nm.cols+col] }

// GSSW aligns query to an acyclic sequence graph with the Graph SIMD
// Smith-Waterman algorithm used by Vg Map (paper §3): nodes are processed
// in topological order; within a node's body rows run striped Smith-
// Waterman; the first row of each node is initialized from the node's
// parents. Striped registers are written back to per-node unstriped DP
// matrices (the "swizzle writes" of case study §6.1).
func GSSW(g *graph.Graph, query []byte, sc bio.Scoring, probe *perf.Probe) (GraphResult, error) {
	order, err := g.TopoSort()
	if err != nil {
		return GraphResult{}, fmt.Errorf("align: GSSW requires an acyclic graph: %w", err)
	}
	if len(query) == 0 || g.NumNodes() == 0 {
		return GraphResult{}, nil
	}
	m := len(query)
	pf := NewProfile(query, sc)
	segLen := pf.segLen
	as := perf.NewAddrSpace()
	st := newSSWState(pf, sc, probe, as)
	nn := g.NumNodes()

	gapO := int16(sc.GapOpen)
	gapE := int16(sc.GapExtend)

	mats := make([]*nodeMatrices, nn+1)
	lastH := make([][]vec, nn+1)
	lastD := make([][]vec, nn+1)
	dSnap := make([]vec, segLen)

	best := GraphResult{}
	var bestNode graph.NodeID
	var bestRow, bestCol int

	for _, id := range order {
		seq := g.Seq(id)
		size := len(seq) * (m + 1)
		nm := &nodeMatrices{rows: len(seq), cols: m + 1}
		nm.h = make([]int16, size)
		nm.d = make([]int16, size)
		nm.ins = make([]int16, size)
		nm.base = as.Alloc(size * 2 * 3)
		mats[id] = nm

		// Node initialization: merge parents' last-row striped state. This
		// is the "indirect graph access" phase that alternates with the
		// dense SIMD region (paper §3, GSSW).
		parents := g.In(id)
		for seg := 0; seg < segLen; seg++ {
			var h, d vec
			for pi, p := range parents {
				ph, pd := lastH[p], lastD[p]
				probe.Load(uintptr(mats[p].base), Lanes*2)
				probe.Load(uintptr(mats[p].base)+uintptr(size), Lanes*2)
				if pi == 0 {
					h, d = ph[seg], pd[seg]
				} else {
					h.maxWith(&ph[seg])
					d.maxWith(&pd[seg])
				}
				probe.Op(perf.Vector, 2)
			}
			st.hLoad[seg] = h
			st.e[seg] = d
		}
		probe.Op(perf.ScalarInt, len(parents)+1)
		probe.TakeBranch(0x60, len(parents) > 0)

		for row := 0; row < nm.rows; row++ {
			// d[row] is the deletion state entering this row (st.e holds the
			// next row's state after column() runs).
			copy(dSnap, st.e)
			var colMax vec
			st.column(bio.Code(seq[row]), &colMax)
			// Swizzle write-back: each striped register scatters its lanes
			// across the unstriped row at stride segLen (§6.1).
			hRow := nm.h[row*nm.cols:]
			dRow := nm.d[row*nm.cols:]
			for seg := 0; seg < segLen; seg++ {
				hv, dv := &st.hLoad[seg], &dSnap[seg]
				for l := 0; l < Lanes; l++ {
					q := l*segLen + seg
					if q >= m {
						continue
					}
					hRow[q+1] = hv.lane(l)
					dRow[q+1] = dv.lane(l)
					probe.Store(uintptr(nm.base)+uintptr((row*nm.cols+q+1)*2), 2)
					probe.Store(uintptr(nm.base)+uintptr(size*2+(row*nm.cols+q+1)*2), 2)
				}
			}
			// Recover the insertion state scalar (left-to-right within row).
			insRow := nm.ins[row*nm.cols:]
			run := int16(0)
			for j := 1; j <= m; j++ {
				open := hRow[j-1] - gapO
				ext := run - gapE
				if open > ext {
					run = open
				} else {
					run = ext
				}
				if run < 0 {
					run = 0
				}
				insRow[j] = run
			}
			probe.Op(perf.ScalarInt, 2*m)

			// Track the best cell.
			if hm := int(colMax.horizontalMax()); hm > best.Score {
				probe.TakeBranch(0x61, true)
				best.Score = hm
				bestNode = id
				bestRow = row
				bestCol = stripedArgmaxRow(hRow, m)
			} else {
				probe.TakeBranch(0x61, false)
			}
		}

		// Stash the node's final striped state for children.
		lastH[id] = append([]vec(nil), st.hLoad...)
		lastD[id] = append([]vec(nil), st.e...)
	}

	if best.Score == 0 {
		return GraphResult{}, nil
	}
	best.EndNode = bestNode
	best.EndOffset = bestRow + 1
	best.QueryEnd = bestCol
	best.Path, best.Cigar = gsswTraceback(g, query, sc, mats, bestNode, bestRow, bestCol)
	return best, nil
}

func stripedArgmaxRow(hRow []int16, m int) int {
	bestV, bestJ := int16(-1), 0
	for j := 1; j <= m; j++ {
		if hRow[j] > bestV {
			bestV, bestJ = hRow[j], j
		}
	}
	return bestJ
}

// gsswTraceback walks the stored per-node matrices from the best cell back
// to a zero cell, crossing node boundaries through parents. Because a node's
// first row is initialized from the element-wise maximum over its parents'
// last rows, the effective "previous row" at row 0 is that merged row, and
// for every traceback state some parent attains the merged value exactly.
func gsswTraceback(g *graph.Graph, query []byte, sc bio.Scoring, mats []*nodeMatrices, node graph.NodeID, row, col int) ([]graph.NodeID, bio.Cigar) {
	var c bio.Cigar
	path := []graph.NodeID{node}
	state := byte('H')
	gapO, gapE := int16(sc.GapOpen), int16(sc.GapExtend)

	// prevCell returns the merged value of matrix sel ('H' or 'D') in the
	// virtual row above (node,0) at column j, plus the parent attaining it.
	prevCell := func(n graph.NodeID, sel byte, j int) (int16, graph.NodeID) {
		var best int16
		var who graph.NodeID
		for _, p := range g.In(n) {
			pm := mats[p]
			if pm.rows == 0 {
				continue
			}
			var v int16
			if sel == 'H' {
				v = pm.at(pm.h, pm.rows-1, j)
			} else {
				v = pm.at(pm.d, pm.rows-1, j)
			}
			if who == 0 || v > best {
				best, who = v, p
			}
		}
		return best, who
	}

	for col > 0 {
		nm := mats[node]
		switch state {
		case 'H':
			h := nm.at(nm.h, row, col)
			if h == 0 {
				return reversePath(path), c.Reverse()
			}
			refBase := g.Seq(node)[row]
			sub := int16(sc.Substitution(refBase, query[col-1]))
			op := bio.CigarX
			if bio.Code(refBase) == bio.Code(query[col-1]) && bio.Code(refBase) != bio.BaseN {
				op = bio.CigarEq
			}
			// Value of the diagonal predecessor (merged at node boundaries).
			var diag int16
			var diagParent graph.NodeID
			if row > 0 {
				diag = nm.at(nm.h, row-1, col-1)
			} else {
				diag, diagParent = prevCell(node, 'H', col-1)
			}
			switch {
			case h == diag+sub:
				c = c.Append(op, 1)
				col--
				if row > 0 {
					row--
				} else {
					if diag == 0 || diagParent == 0 {
						return reversePath(path), c.Reverse() // local start
					}
					node, row = diagParent, mats[diagParent].rows-1
					path = append(path, node)
				}
			case h == sub && diag <= 0:
				c = c.Append(op, 1)
				return reversePath(path), c.Reverse()
			case h == nm.at(nm.ins, row, col):
				state = 'I'
			case h == nm.at(nm.d, row, col):
				state = 'D'
			default:
				// Defensive: no predecessor matched (saturation corner);
				// end the local alignment here.
				return reversePath(path), c.Reverse()
			}
		case 'I':
			v := nm.at(nm.ins, row, col)
			c = c.Append(bio.CigarIns, 1)
			if v == nm.at(nm.h, row, col-1)-gapO {
				state = 'H'
			}
			col--
		case 'D':
			v := nm.at(nm.d, row, col)
			c = c.Append(bio.CigarDel, 1)
			if row > 0 {
				if v == nm.at(nm.h, row-1, col)-gapO {
					state = 'H'
				}
				row--
			} else {
				ph, hp := prevCell(node, 'H', col)
				pd, dp := prevCell(node, 'D', col)
				switch {
				case hp != 0 && v == ph-gapO:
					state = 'H'
					node, row = hp, mats[hp].rows-1
					path = append(path, node)
				case dp != 0 && v == pd-gapE:
					node, row = dp, mats[dp].rows-1
					path = append(path, node)
				default:
					return reversePath(path), c.Reverse()
				}
			}
		}
	}
	return reversePath(path), c.Reverse()
}

func reversePath(p []graph.NodeID) []graph.NodeID {
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	return p
}
