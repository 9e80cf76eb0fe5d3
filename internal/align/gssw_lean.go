package align

import (
	"fmt"

	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/perf"
)

// GSSWWorkspace holds the reusable storage of the boundary-only GSSW pass
// (Lean): the topological order, the striped profile and rolling state, and
// one arena of per-node boundary H/D vectors. Everything grows only, so a
// warm workspace allocates nothing. Vg Map's mapper keeps one per goroutine:
// it reads only the score and end node, so it never pays for the full DP
// matrices and traceback that GSSW builds.
type GSSWWorkspace struct {
	topo  graph.TopoOrder
	pf    Profile
	st    sswState
	bound []vec // node id's boundary H, then D, at 2*id*segLen
	as    perf.AddrSpace
}

// GSSWLean is the optimization case study §6.1 proposes: within a node the
// DP rows have linear dependencies, so they need not be written back to the
// full matrix — only each node's boundary (last-row) state must be kept for
// its children. This variant therefore skips the swizzle write-back of
// every intra-node row, eliminating the memory stalls the paper measured
// (≈3× those of SSW), at the cost of returning score and end position only
// (no traceback). It runs Lean on a fresh workspace.
func GSSWLean(g *graph.Graph, query []byte, sc bio.Scoring, probe *perf.Probe) (GraphResult, error) {
	var ws GSSWWorkspace
	return ws.Lean(g, query, sc, probe)
}

// Lean is GSSWLean on the workspace's storage. Its best cell is updated on
// the same strict > in the same node and row order as GSSW's, so Score,
// EndNode and EndOffset equal GSSW's.
func (ws *GSSWWorkspace) Lean(g *graph.Graph, query []byte, sc bio.Scoring, probe *perf.Probe) (GraphResult, error) {
	order, err := ws.topo.Sort(g)
	if err != nil {
		return GraphResult{}, fmt.Errorf("align: GSSWLean requires an acyclic graph: %w", err)
	}
	if len(query) == 0 || g.NumNodes() == 0 {
		return GraphResult{}, nil
	}
	pf := &ws.pf
	pf.reset(query, sc)
	segLen := pf.segLen
	st := &ws.st
	*st = sswState{pf: pf, sc: sc, probe: probe,
		hLoad: ensureVecs(st.hLoad, segLen), hStore: ensureVecs(st.hStore, segLen), e: ensureVecs(st.e, segLen)}
	ws.as.Reset()
	st.place(&ws.as)

	// Boundary states only: one striped (H, D) pair per node.
	ws.bound = ensureVecs(ws.bound, 2*(g.NumNodes()+1)*segLen)
	boundaryBase := ws.as.Alloc((g.NumNodes() + 1) * segLen * Lanes * 4)

	best := GraphResult{}
	for _, id := range order {
		seq := g.Seq(id)
		parents := g.In(id)
		for seg := 0; seg < segLen; seg++ {
			var h, d vec
			for pi, p := range parents {
				probe.Load(uintptr(boundaryBase)+uintptr((int(p)*segLen+seg)*Lanes*4), Lanes*4)
				ph, pd := &ws.bound[2*int(p)*segLen+seg], &ws.bound[(2*int(p)+1)*segLen+seg]
				if pi == 0 {
					h, d = *ph, *pd
				} else {
					h.maxWith(ph)
					d.maxWith(pd)
				}
				probe.Op(perf.Vector, 2)
			}
			st.hLoad[seg] = h
			st.e[seg] = d
		}
		probe.TakeBranch(0x64, len(parents) > 0)

		for row := 0; row < len(seq); row++ {
			var colMax vec
			st.column(bio.Code(seq[row]), &colMax)
			// No write-back: the striped registers simply roll forward.
			if hm := int(colMax.horizontalMax()); hm > best.Score {
				probe.TakeBranch(0x65, true)
				best.Score = hm
				best.EndNode = id
				best.EndOffset = row + 1
			} else {
				probe.TakeBranch(0x65, false)
			}
		}
		copy(ws.bound[2*int(id)*segLen:], st.hLoad)
		copy(ws.bound[(2*int(id)+1)*segLen:], st.e)
		probe.Store(uintptr(boundaryBase)+uintptr(int(id)*segLen*Lanes*4), segLen*Lanes*4)
	}
	return best, nil
}
