package align

import (
	"fmt"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/perf"
)

// POA is a partial order alignment graph (the paper's [20]/POA kernels used
// by Cactus graph induction and smoothXG polishing). Nodes hold single
// bases; sequences are aligned to the graph with dynamic programming over
// the DAG and merged in, so the graph accumulates a multiple alignment.
// An adaptive band (abPOA-style) restricts each rank's DP columns around
// the best diagonal when Band > 0.
type POA struct {
	nodes []poaNode
	// Band is the adaptive band half-width; 0 or negative disables banding.
	Band int
	// Scoring uses Match / Mismatch and GapOpen as a linear per-base gap
	// penalty (POA here is non-affine, like the seeded variants in
	// smoothXG's default configuration).
	Scoring bio.Scoring

	nseq int

	// scratch is grow-only working memory reused across AddSequence and
	// Consensus calls — and, through Reset, across graphs — so repeated
	// alignments (smoothXG polish windows, MC novel-segment induction)
	// allocate nothing once warm. A POA is not safe for concurrent use, so
	// plain reuse suffices; it lives as long as the POA, so callers scope a
	// reused POA to one build.
	scratch poaScratch
}

type poaScratch struct {
	// Topological order of the graph and each node's rank in it (topo).
	order, rank, indeg []int

	// Band-resident DP of the last alignToGraph: rank r holds columns
	// lo[r]..hi[r] at [r*width, r*width+hi[r]-lo[r]].
	width  int
	lo, hi []int32
	score  []int32
	from   []int32 // packed traceback, see poaFrom
	qcode  []byte
	ops    []poaOp

	// Heaviest-path DP of Consensus.
	best, next []int
}

type poaNode struct {
	base      byte
	out       []int
	in        []int
	outWeight []int // parallel to out: number of sequences using the edge
	alignedTo []int // nodes representing other bases at the same column
	weight    int   // sequences passing through the node
}

// NewPOA returns an empty POA graph with default scoring (match 2,
// mismatch 4, gap 4).
func NewPOA() *POA {
	return &POA{Scoring: bio.Scoring{Match: 2, Mismatch: 4, GapOpen: 4, GapExtend: 4}}
}

// NumNodes returns the node count.
func (p *POA) NumNodes() int { return len(p.nodes) }

// NumSequences returns how many sequences were added.
func (p *POA) NumSequences() int { return p.nseq }

// AddSequence aligns seq to the graph and merges it in. The first sequence
// becomes the backbone.
func (p *POA) AddSequence(seq []byte, probe *perf.Probe) error {
	if len(seq) == 0 {
		return fmt.Errorf("align: POA cannot add an empty sequence")
	}
	if len(p.nodes) == 0 {
		prev := -1
		for _, b := range seq {
			id := p.newNode(b)
			if prev >= 0 {
				p.addEdge(prev, id)
			}
			prev = id
		}
		p.nseq++
		return nil
	}
	order, rank := p.topo()
	p.merge(seq, p.alignToGraph(seq, order, rank, probe), rank)
	p.nseq++
	return nil
}

// Reset empties the graph for a new multiple alignment, keeping Band,
// Scoring and all allocated memory (DP scratch and the node slots with
// their edge lists) for reuse.
func (p *POA) Reset() {
	p.nodes = p.nodes[:0]
	p.nseq = 0
}

func (p *POA) newNode(b byte) int {
	id := len(p.nodes)
	if id < cap(p.nodes) {
		// A slot left by Reset: reuse its edge lists' capacity.
		p.nodes = p.nodes[:id+1]
		nd := &p.nodes[id]
		*nd = poaNode{base: b, weight: 1, out: nd.out[:0], in: nd.in[:0],
			outWeight: nd.outWeight[:0], alignedTo: nd.alignedTo[:0]}
	} else {
		p.nodes = append(p.nodes, poaNode{base: b, weight: 1})
	}
	return id
}

func (p *POA) addEdge(from, to int) {
	n := &p.nodes[from]
	for i, t := range n.out {
		if t == to {
			n.outWeight[i]++
			return
		}
	}
	n.out = append(n.out, to)
	n.outWeight = append(n.outWeight, 1)
	p.nodes[to].in = append(p.nodes[to].in, from)
}

// grow returns s resized to n elements, reallocating only when n exceeds
// its capacity. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// topo computes the topological order of the graph (a DAG by construction)
// and each node's rank in it, into scratch that the next call overwrites.
func (p *POA) topo() (order, rank []int) {
	n := len(p.nodes)
	sc := &p.scratch
	indeg := grow(sc.indeg, n)
	clear(indeg)
	for i := range p.nodes {
		for _, t := range p.nodes[i].out {
			indeg[t]++
		}
	}
	// order doubles as the FIFO queue: nodes are appended when their last
	// predecessor is emitted and consumed from head.
	order = grow(sc.order, n)[:0]
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, t := range p.nodes[order[head]].out {
			indeg[t]--
			if indeg[t] == 0 {
				order = append(order, t)
			}
		}
	}
	rank = grow(sc.rank, n)
	clear(rank)
	for r, id := range order {
		rank[id] = r
	}
	sc.indeg, sc.order, sc.rank = indeg, order, rank
	return order, rank
}

// poaOp is one traceback operation of a sequence-to-POA alignment.
type poaOp struct {
	node int // graph node (-1 for insertions)
	qpos int // query position (-1 for deletions)
}

// poaNegInf is the score of a cell the DP never computed.
const poaNegInf = -(1 << 29)

// A traceback cell packs the move into one int32: (predecessor rank + 2)
// << 2 | kind, with rank -1 the virtual start row and -2 "no candidate beat
// poaNegInf" (so an untouched in-band cell is 0).
const (
	poaDiag = 0 // node aligned to seq[j-1]
	poaDel  = 1 // node consumed against a gap
	poaIns  = 2 // query base inserted

	// poaUnwritten is how a cell the DP never wrote reads back: rank 0,
	// diagonal — the zero value of the full matrix's traceback arrays.
	poaUnwritten = (0+2)<<2 | poaDiag
)

func poaFrom(rank, kind int) int32 { return int32(rank+2)<<2 | int32(kind) }

// cell returns the index of DP cell (r, j) in the band-resident arrays, or
// -1 when column j lies outside rank r's band.
func (sc *poaScratch) cell(r, j int) int {
	lo := int(sc.lo[r])
	if j < lo || j > int(sc.hi[r]) {
		return -1
	}
	return r*sc.width + j - lo
}

// scoreAt reads score (r, j); an out-of-band cell reads as poaNegInf.
func (sc *poaScratch) scoreAt(r, j int) int32 {
	if c := sc.cell(r, j); c >= 0 {
		return sc.score[c]
	}
	return poaNegInf
}

// bandAt reads column j of a band row that starts at column lo; a column
// outside the row reads as poaNegInf.
func bandAt(row []int32, lo, j int) int32 {
	if k := j - lo; uint(k) < uint(len(row)) {
		return row[k]
	}
	return poaNegInf
}

// alignToGraph runs global DP of seq against the DAG, whose topological
// order and ranks the caller computed with topo, and returns the alignment
// operations in order. The returned slice is scratch: valid until the next
// call.
//
// score (r, j) is the best alignment of seq[:j] ending at node order[r]
// (node consumed); the virtual start row -1 is gaps only, score -j*gap.
//
// Storage is band-resident: rank r keeps only columns [lo[r], hi[r]] —
// the adaptive band around its diagonal, or [0, m] when Band <= 0 — in a
// row of width min(2*Band+1, m+1). A read outside a rank's band returns
// what a full matrix would hold in a cell the DP never wrote: poaNegInf
// score and the poaUnwritten traceback. Both are reachable — a banded cell
// prefers poaNegInf+Match from an out-of-band predecessor over poaNegInf,
// and the traceback then walks through that predecessor — so the rule is
// part of the kernel's contract: op lists are identical to the full-matrix
// kernel's (poa_oracle_test.go) for any scoring that passes
// bio.Scoring.Validate.
func (p *POA) alignToGraph(seq []byte, order, rank []int, probe *perf.Probe) []poaOp {
	sc := &p.scratch
	n, m := len(order), len(seq)
	sc.width = m + 1
	if p.Band > 0 && 2*p.Band+1 < sc.width {
		sc.width = 2*p.Band + 1
	}
	sc.lo, sc.hi = grow(sc.lo, n), grow(sc.hi, n)
	sc.score = grow(sc.score, n*sc.width)
	sc.from = grow(sc.from, n*sc.width)
	// The query as 2-bit codes, once per call instead of
	// Scoring.Substitution per cell.
	qcode := grow(sc.qcode, m)
	for i, b := range seq {
		qcode[i] = bio.Code(b)
	}
	sc.qcode = qcode
	match, mismatch, gap := int32(p.Scoring.Match), -int32(p.Scoring.Mismatch), int32(p.Scoring.GapOpen)

	for r, id := range order {
		nd := &p.nodes[id]
		lo, hi := 0, m
		if p.Band > 0 {
			center := r * m / n
			lo, hi = max(center-p.Band, 0), min(center+p.Band, m)
		}
		sc.lo[r], sc.hi[r] = int32(lo), int32(hi)
		row := sc.score[r*sc.width:][:hi-lo+1]
		from := sc.from[r*sc.width:][:len(row)]
		// N never matches, so an N node compares unequal to every code.
		code := bio.Code(nd.base)
		if code == bio.BaseN {
			code = 0xff
		}
		ins := poaFrom(r, poaIns)

		// One pass over the row per predecessor, columns innermost so the
		// loop runs over contiguous rows. Each column still sees its
		// candidates in the full-matrix kernel's order — per in-edge diag
		// then del, and insert (the one left-to-right dependency, so it
		// rides the last pass) after all of them — and ties break the same.
		// left is the finished cell to the left; column lo has no in-band
		// left neighbour, and poaNegInf-gap never beats a cell.
		left := int32(poaNegInf)
		if len(nd.in) == 0 {
			// Source: the only predecessor is the virtual start row.
			diag, del := poaFrom(-1, poaDiag), poaFrom(-1, poaDel)
			for k := range row {
				j := lo + k
				best, f := int32(poaNegInf), int32(0)
				if j > 0 {
					sub := mismatch
					if qcode[j-1] == code {
						sub = match
					}
					if d := -int32(j-1)*gap + sub; d > best {
						best, f = d, diag
					}
				}
				// Node consumed against a gap, with j query bases also
				// gapped before it.
				if d := -int32(j+1) * gap; d > best {
					best, f = d, del
				}
				if v := left - gap; v > best {
					best, f = v, ins
				}
				row[k], from[k], left = best, f, best
			}
		}
		for pi, pre := range nd.in {
			pr := rank[pre]
			plo := int(sc.lo[pr])
			prow := sc.score[pr*sc.width:][:int(sc.hi[pr])-plo+1]
			diag, del := poaFrom(pr, poaDiag), poaFrom(pr, poaDel)
			first, last := pi == 0, pi == len(nd.in)-1
			for k := range row {
				j := lo + k
				best, f := int32(poaNegInf), int32(0)
				if !first {
					best, f = row[k], from[k]
				}
				if j > 0 {
					sub := mismatch
					if qcode[j-1] == code {
						sub = match
					}
					if d := bandAt(prow, plo, j-1) + sub; d > best {
						best, f = d, diag
					}
				}
				if v := bandAt(prow, plo, j) - gap; v > best { // delete node base
					best, f = v, del
				}
				if last {
					if v := left - gap; v > best { // insert query base
						best, f = v, ins
					}
					left = best
				}
				row[k], from[k] = best, f
			}
		}
		probe.Op(perf.ScalarInt, len(row)*(4*len(nd.in)+3))
		probe.TakeBranch(0xb0, len(nd.in) > 1)
	}

	// Best end: any sink node at j = m (global in the query, free end on
	// the graph among sinks).
	bestR, bestScore := -1, int32(poaNegInf)
	for r, id := range order {
		if len(p.nodes[id].out) == 0 {
			if v := sc.scoreAt(r, m); v > bestScore {
				bestScore, bestR = v, r
			}
		}
	}
	if bestR < 0 {
		// All sinks banded out: fall back to the global best at j = m.
		for r := range order {
			if v := sc.scoreAt(r, m); v > bestScore {
				bestScore, bestR = v, r
			}
		}
	}

	// Traceback, collected end to start.
	ops := sc.ops[:0]
	r, j := bestR, m
	for r >= 0 {
		f := int32(poaUnwritten)
		if c := sc.cell(r, j); c >= 0 {
			f = sc.from[c]
		}
		bn := int(f>>2) - 2
		switch f & 3 {
		case poaDiag:
			ops = append(ops, poaOp{order[r], j - 1})
			// Leading insertions when the path started mid-query.
			if bn == -1 {
				for q := j - 2; q >= 0; q-- {
					ops = append(ops, poaOp{-1, q})
				}
				r, j = -1, 0
				continue
			}
			r, j = bn, j-1
		case poaDel:
			ops = append(ops, poaOp{order[r], -1})
			if bn == -1 {
				for q := j - 1; q >= 0; q-- {
					ops = append(ops, poaOp{-1, q})
				}
				r = -1
				continue
			}
			r = bn
		case poaIns:
			ops = append(ops, poaOp{-1, j - 1})
			j--
		}
	}
	sc.ops = ops
	for a, b := 0, len(ops)-1; a < b; a, b = a+1, b-1 {
		ops[a], ops[b] = ops[b], ops[a]
	}
	return ops
}

// merge threads the aligned sequence through the graph, fusing matches,
// attaching mismatches as aligned alternatives, and inserting new nodes for
// insertions. rank holds the ranks of the pre-merge graph (from topo): they
// guard against creating cycles when reusing aligned-alternative nodes out
// of topological order.
func (p *POA) merge(seq []byte, ops []poaOp, rank []int) {
	lastExistingRank := -1
	prev := -1
	link := func(id int) {
		if prev >= 0 && id >= 0 {
			p.addEdge(prev, id)
		}
		if id >= 0 {
			prev = id
			if id < len(rank) {
				lastExistingRank = rank[id]
			}
		}
	}
	for _, op := range ops {
		switch {
		case op.node >= 0 && op.qpos >= 0:
			b := seq[op.qpos]
			nd := &p.nodes[op.node]
			if bio.Code(nd.base) == bio.Code(b) {
				nd.weight++
				link(op.node)
				break
			}
			// Mismatch: reuse an aligned alternative with this base (when
			// topologically safe), or create one.
			target := -1
			for _, alt := range nd.alignedTo {
				if bio.Code(p.nodes[alt].base) == bio.Code(b) &&
					(alt >= len(rank) || rank[alt] > lastExistingRank) {
					target = alt
					break
				}
			}
			if target < 0 {
				target = p.newNode(b)
				// Cross-register the aligned group: the node, then its
				// alternatives as they stood before target joined.
				group := p.nodes[op.node].alignedTo
				p.alignNodes(op.node, target)
				for _, gmem := range group {
					p.alignNodes(gmem, target)
				}
			} else {
				p.nodes[target].weight++
			}
			link(target)
		case op.node < 0 && op.qpos >= 0:
			// Insertion: a brand-new node.
			id := p.newNode(seq[op.qpos])
			link(id)
		default:
			// Deletion: the sequence skips this node; nothing to add.
		}
	}
}

// alignNodes records a and b as alternatives at the same column.
func (p *POA) alignNodes(a, b int) {
	p.nodes[a].alignedTo = append(p.nodes[a].alignedTo, b)
	p.nodes[b].alignedTo = append(p.nodes[b].alignedTo, a)
}

// Consensus returns the heaviest path through the graph: dynamic programming
// over topological order maximizing accumulated node and edge weights.
func (p *POA) Consensus() []byte {
	if len(p.nodes) == 0 {
		return nil
	}
	order, _ := p.topo()
	sc := &p.scratch
	sc.best, sc.next = grow(sc.best, len(p.nodes)), grow(sc.next, len(p.nodes))
	best, next := sc.best, sc.next
	clear(best)
	for i := range next {
		next[i] = -1
	}
	// Walk in reverse topological order.
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		nd := &p.nodes[id]
		best[id] = nd.weight
		bestChild, bestVal := -1, 0
		for ei, t := range nd.out {
			v := best[t] + nd.outWeight[ei]
			if v > bestVal {
				bestVal, bestChild = v, t
			}
		}
		best[id] += bestVal
		next[id] = bestChild
	}
	// Best start among sources.
	start, startVal := -1, -1
	for _, id := range order {
		if len(p.nodes[id].in) == 0 && best[id] > startVal {
			startVal, start = best[id], id
		}
	}
	var out []byte
	for id := start; id >= 0; id = next[id] {
		out = append(out, p.nodes[id].base)
	}
	return out
}
