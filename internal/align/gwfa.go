package align

import (
	"slices"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// gwfaPoint is one wavefront point: the furthest query offset q reached on
// diagonal k (= q − node offset) of one node's DP matrix (Fig. 4e: every
// node has its own matrix; diagonals expand across edges into child nodes).
type gwfaPoint struct {
	node graph.NodeID
	k, q int32
}

// GWFAWorkspace holds the reusable wavefront state of GWFA. Every node the
// wavefront touches gets one dense furthest-reaching row (diagonals
// [−len(node), len(query)], −1 = unreached) carved from a grow-only arena;
// row maps a node to its row and is reset through the touched list, so a
// run costs the region it reaches, not the graph. The wavefronts themselves
// are append-only point slices. A warm workspace bridges a gap with zero
// allocations, and the whole result — EndNode and EndRef included — is a
// function of the inputs alone: points are visited in append order, so a
// tie between equally distant ends always resolves the same way.
type GWFAWorkspace struct {
	row       []int          // by node id: 1 + arena index of the node's diagonal 0; 0 = untouched
	touched   []graph.NodeID // nodes holding a row this run
	arena     []int32        // furthest query offset per (touched node, diagonal)
	cur, next []gwfaPoint
	qc        []byte
	as        perf.AddrSpace
}

// GWFA is the Graph Wavefront Algorithm used by Minigraph to bridge gaps
// between anchors (paper §3, [35]): non-affine (unit-cost) alignment of
// query against the graph starting at offset 0 of node start, consuming the
// whole query, ending anywhere. When a diagonal reaches the end of a node it
// expands into each child node, scattering the wavefront across per-node
// matrices — the irregular access pattern §5.2 attributes to GWFA.
func GWFA(g *graph.Graph, start graph.NodeID, query []byte, probe *perf.Probe) (EditResult, error) {
	return GWFAAt(g, start, 0, query, probe)
}

// GWFAAt is GWFA starting at offset startOff (clamped into the node) of
// node start, so a long gap can be bridged in pieces with each piece
// resuming exactly where the previous one ended. The result's EndRef is
// the exclusive end offset of the alignment within EndNode — the
// (EndNode, EndRef) pair is the resume point for the next piece.
func GWFAAt(g *graph.Graph, start graph.NodeID, startOff int, query []byte, probe *perf.Probe) (EditResult, error) {
	return gwfaCore(nil, g, start, startOff, query, len(query), probe)
}

// Align runs GWFA from offset 0 of start reusing the workspace's buffers.
func (ws *GWFAWorkspace) Align(g *graph.Graph, start graph.NodeID, query []byte, probe *perf.Probe) (EditResult, error) {
	return gwfaCore(ws, g, start, 0, query, len(query), probe)
}

// AlignAt is GWFAAt on the workspace's buffers with a distance bound: a
// distance ≤ bound is reported exactly, with its resume point; anything
// larger stops after bound+1 wavefronts and reports Distance bound+1 (and
// no resume point), so a caller that only asks "within budget?" never pays
// for the full distance of a divergent gap.
func (ws *GWFAWorkspace) AlignAt(g *graph.Graph, start graph.NodeID, startOff int, query []byte, bound int, probe *perf.Probe) (EditResult, error) {
	return gwfaCore(ws, g, start, startOff, query, bound, probe)
}

// begin readies the workspace for a run over a graph of numNodes nodes:
// rows of the previous run are released through its touched list.
func (ws *GWFAWorkspace) begin(numNodes int) {
	for _, n := range ws.touched {
		ws.row[n] = 0
	}
	if len(ws.row) <= numNodes {
		ws.row = make([]int, numNodes+1)
	}
	ws.touched = ws.touched[:0]
	ws.arena = ws.arena[:0]
	ws.next = ws.next[:0]
}

// carve gives node (of length nodeLen) its furthest-reaching row for a
// query of m bases and returns the row[node] value.
func (ws *GWFAWorkspace) carve(node graph.NodeID, nodeLen, m int) int {
	lo := len(ws.arena)
	hi := lo + nodeLen + m + 1
	ws.arena = slices.Grow(ws.arena, hi-lo)[:hi]
	for i := lo; i < hi; i++ {
		ws.arena[i] = -1
	}
	ws.row[node] = lo + nodeLen + 1
	ws.touched = append(ws.touched, node)
	return ws.row[node]
}

func gwfaCore(ws *GWFAWorkspace, g *graph.Graph, start graph.NodeID, startOff int, query []byte, bound int, probe *perf.Probe) (EditResult, error) {
	if !g.Valid(start) {
		return EditResult{}, errInvalidStart(start)
	}
	if startOff < 0 {
		startOff = 0
	}
	if l := len(g.Seq(start)); startOff > l {
		startOff = l
	}
	if bound < 0 {
		bound = 0
	}
	m := int32(len(query))
	if m == 0 {
		return EditResult{Distance: 0, EndNode: start, EndRef: startOff}, nil
	}
	if ws == nil {
		ws = new(GWFAWorkspace)
	}
	ws.qc = bio.AppendCodes(ws.qc[:0], query)
	qc := ws.qc
	ws.as.Reset()
	// Wavefront state is scattered across per-node structures, so its
	// footprint grows with the graph region the wavefront reaches
	// (§5.2: chromosome-scale gaps cover more nodes → more memory
	// divergence).
	wfFoot := uint64(g.NumNodes()) * 64
	if wfFoot < 1<<14 {
		wfFoot = 1 << 14
	}
	wfBase := ws.as.Alloc(int(wfFoot))
	ws.begin(g.NumNodes())

	// improve offers query offset q on diagonal k of node to the wavefront
	// being built (ws.next): it is kept only when it reaches further than
	// anything seen on that diagonal at any score so far.
	improve := func(node graph.NodeID, k, q int32) {
		probe.Load(uintptr(wfBase)+uintptr((uint64(uint32(node))*64+uint64(uint32(k))*8)%wfFoot), 8)
		// Per-point bookkeeping: diagonal/offset arithmetic, bounds checks,
		// index computation of the per-node wavefront slot.
		probe.Op(perf.ScalarInt, 14)
		probe.Dep(1) // offset comparison chain
		// No branch recorded here: the real GWFA computes new wavefront
		// offsets with unconditional max operations.
		at := ws.row[node]
		if at == 0 {
			at = ws.carve(node, len(g.Seq(node)), int(m))
		}
		if f := &ws.arena[at-1+int(k)]; *f < q {
			*f = q
			ws.next = append(ws.next, gwfaPoint{node, k, q})
			probe.Store(uintptr(wfBase)+uintptr((uint64(uint32(node))*64+uint64(uint32(k))*8+8)%wfFoot), 8)
		}
	}

	improve(start, -int32(startOff), 0) // diagonal 0 shifted to startOff
	for s := 0; ; s++ {
		// Extend pass: push every point of the new wavefront as far as exact
		// matches allow. A diagonal that reaches its node's end expands into
		// the children (blue diagonal, Fig. 4e), whose points are appended
		// and extended later in this same pass. Points a later offer
		// overtook on their own diagonal are dropped in place.
		kept := 0
		for i := 0; i < len(ws.next); i++ {
			pt := ws.next[i]
			f := ws.row[pt.node] - 1 + int(pt.k)
			if ws.arena[f] > pt.q {
				continue
			}
			seq := g.Seq(pt.node)
			off := pt.q - pt.k
			matched := 0
			for int(off) < len(seq) && pt.q < m && bio.Code(seq[off]) == qc[pt.q] {
				off++
				pt.q++
				matched++
			}
			// Extension cost: load + compare + advance per matched base (the
			// comparison loop body), one exit branch per extension run.
			probe.Op(perf.ScalarInt, 4*matched+4)
			probe.Load(uintptr(wfBase)+uintptr(uint64(pt.q)%wfFoot), 4)
			probe.TakeBranch(0xa1, matched > 0)
			ws.arena[f] = pt.q
			if pt.q == m {
				return EditResult{Distance: s, EndNode: pt.node, EndRef: int(off)}, nil
			}
			if int(off) == len(seq) {
				for _, c := range g.Out(pt.node) {
					probe.Op(perf.ScalarInt, 4)
					improve(c, pt.q, pt.q)
				}
			}
			ws.next[kept] = pt
			kept++
		}
		if s >= bound {
			return EditResult{Distance: bound + 1, EndNode: start, EndRef: startOff}, nil
		}
		if kept == 0 {
			// Wavefront died (fully dominated): distance is bounded by
			// inserting the whole remaining query; fall back to worst case.
			return EditResult{Distance: int(m), EndNode: start, EndRef: startOff}, nil
		}
		ws.cur, ws.next = ws.next[:kept], ws.cur[:0]

		// Next wavefront: one more edit from every surviving point.
		for _, pt := range ws.cur {
			inNode := pt.q-pt.k < int32(len(g.Seq(pt.node)))
			if inNode {
				improve(pt.node, pt.k, pt.q+1) // mismatch: advance both
			}
			improve(pt.node, pt.k+1, pt.q+1) // insertion: consume query only
			if inNode {
				improve(pt.node, pt.k-1, pt.q) // deletion: consume node base only
			}
			// Per-point wavefront arithmetic: three-way max, bounds
			// clipping, node-length lookups. These carry a dependency
			// chain (each successor offset derives from the max), which
			// is what keeps GWFA core-bound (§5.2).
			probe.Op(perf.ScalarInt, 16)
			probe.Dep(3)
		}
	}
}

type errInvalidStart graph.NodeID

func (e errInvalidStart) Error() string {
	return "align: GWFA start node out of range"
}
