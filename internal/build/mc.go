package build

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/chain"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/perf"
)

// MCConfig parameterizes the Minigraph-Cactus pipeline model.
type MCConfig struct {
	// K, W select the (w,k)-minimizer scheme of the graph mapping.
	K, W int
	// SegmentLen segments the first assembly into backbone nodes.
	SegmentLen int
	// MapChunk splits each assembly into mapping chunks (Cactus maps
	// assemblies in pieces; it also bounds the chaining gap window).
	MapChunk int
	// MinSpan subsamples chain anchors: consecutive bridged anchors are at
	// least this many query bp apart, so GWFA bridges real gaps.
	MinSpan int
	// LayoutIterations is the PG-SGD iteration count of the visualization
	// stage; ≤0 disables layout.
	LayoutIterations int
	// Workers bounds the per-assembly chunk-mapping worker pool; ≤0 uses
	// GOMAXPROCS. The result is byte-identical for any worker count.
	Workers int

	// indexCheck, when non-nil, is invoked after every incremental index
	// update (backbone and each mapped assembly) with the growing graph and
	// the extended index — the test hook of the incremental-vs-rebuild
	// differential.
	indexCheck func(*graph.Graph, *minimizer.GraphIndex)
}

// DefaultMCConfig mirrors Minigraph-Cactus defaults scaled to the
// benchmark datasets.
func DefaultMCConfig() MCConfig {
	return MCConfig{
		K:                15,
		W:                10,
		SegmentLen:       512,
		MapChunk:         15_000,
		MinSpan:          192,
		LayoutIterations: 4,
	}
}

// Fixed mapping and induction bounds of the MC model (like the PairMatches
// knobs).
const (
	// mcMinNovel is the smallest unanchored query segment that induces
	// new graph sequence.
	mcMinNovel = 24
	// mcDivergence is the GWFA distance/length ratio above which a bridged
	// gap is considered novel sequence rather than a match.
	mcDivergence = 0.06
	// mcPOABand is the adaptive band half-width of the induction POA.
	mcPOABand = 32
	// mcMaxOcc caps minimizer occurrences used as anchors.
	mcMaxOcc = 4
	// mcMaxChunkAnchors caps anchors per mapping chunk (deterministic
	// stride subsampling beyond it).
	mcMaxChunkAnchors = 6000
	// mcGWFACap bounds the query slice handed to one GWFA bridge call.
	mcGWFACap = 2000
	// mcMaxPOAAlternatives bounds how many existing alternatives join the
	// induction POA of one novel segment.
	mcMaxPOAAlternatives = 4
)

// planItem is one step of an assembly's walk plan: either a matched anchor
// node (node != 0) or a novel query segment [qLo,qHi) with the GWFA
// distance measured across it (-1 when the segment was never bridged).
type planItem struct {
	node     graph.NodeID
	qLo, qHi int
	dist     int
}

// MinigraphCactus runs the Minigraph-Cactus pipeline model: the first
// assembly becomes the backbone; every further assembly is mapped against
// the growing graph (minimizer anchors → graph chaining → GWFA bridging of
// inter-anchor gaps, the paper's minigraph stage), divergent or unanchored
// segments induce new nodes via POA over the segment and its existing
// alternatives (the Cactus/abPOA induction), a GFAffix-style polish pass
// collapses redundant sibling nodes, and PG-SGD lays the graph out.
//
// One minimizer index is extended incrementally across the run
// (GraphIndex.AddPath indexes only each newly embedded haplotype), so
// growth costs O(new path) per assembly instead of O(assemblies × graph)
// re-indexing. Each assembly's mapping chunks run concurrently on a
// bounded pool of cfg.Workers goroutines with a deterministic in-order
// plan merge.
//
// Stage timing: GWFA accumulates inside Alignment, POATime inside
// Induction. ctx cancels the run between assemblies and mapping chunks;
// a nil ctx behaves like context.Background(). The run is deterministic
// for fixed inputs and config, independent of Workers and GOMAXPROCS.
func MinigraphCactus(ctx context.Context, names []string, seqs [][]byte, cfg MCConfig, probe *perf.Probe) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(names) != len(seqs) || len(seqs) < 2 {
		return nil, fmt.Errorf("build: MinigraphCactus needs ≥2 named assemblies (got %d names, %d seqs)", len(names), len(seqs))
	}
	if cfg.SegmentLen <= 0 || cfg.MapChunk <= 0 || cfg.MinSpan <= 0 {
		return nil, fmt.Errorf("build: invalid MCConfig: %+v", cfg)
	}
	res := &Result{}
	bd := &res.Breakdown
	bd.Pipeline = "Minigraph-Cactus"
	res.Stats.Assemblies = len(seqs)

	// Backbone: the first assembly, segmented into nodes.
	g := graph.New()
	var err error
	timeStage(&bd.Induction, func() {
		err = g.AddPath(names[0], segmentWalk(g, seqs[0], cfg.SegmentLen))
	})
	if err != nil {
		return nil, err
	}

	// The one growing minimizer index: built over the backbone here,
	// extended with each induced haplotype path below.
	var idx *minimizer.GraphIndex
	timeStage(&bd.Alignment, func() {
		idx, err = minimizer.NewGraphIndex(g, cfg.K, cfg.W)
	})
	if err != nil {
		return nil, err
	}
	if cfg.indexCheck != nil {
		cfg.indexCheck(g, idx)
	}

	// novel buckets the induced nodes between a pair of flanking anchor
	// nodes, so later assemblies carrying the same novel sequence reuse
	// them (the "growing graph" property).
	novel := map[[2]graph.NodeID][]graph.NodeID{}
	// One POA for the whole run (induction is sequential): induceNovel
	// resets it per segment and reuses its scratch.
	poa := align.NewPOA()
	poa.Band = mcPOABand

	for ai := 1; ai < len(seqs); ai++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		asm := seqs[ai]
		var plan []planItem
		step := GrowthStep{Assembly: names[ai]}

		// Alignment: map the assembly's chunks against the current graph,
		// concurrently, merging the per-chunk plans in chunk order.
		timeStage(&bd.Alignment, func() {
			plan, err = mapAssembly(ctx, g, idx, asm, cfg, &step, bd, probe)
		})
		if err != nil {
			return nil, err
		}

		// Induction: materialize the plan into graph growth and a path.
		timeStage(&bd.Induction, func() {
			t0 := time.Now()
			var walk []graph.NodeID
			last := graph.NodeID(0)
			// nextMatched[pi+1] is the first matched node at or after plan
			// index pi+1 — the right flank of novel item pi, precomputed in
			// one reverse pass instead of rescanning plan[pi+1:] per item.
			next := nextMatched(plan)
			for pi, item := range plan {
				if item.node != 0 {
					if item.node != last {
						walk = append(walk, item.node)
						last = item.node
					}
					continue
				}
				seg := asm[item.qLo:item.qHi]
				nd := induceNovel(g, poa, novel, [2]graph.NodeID{last, next[pi+1]}, seg, bd, &res.Stats, probe)
				if nd != last {
					walk = append(walk, nd)
					last = nd
				}
			}
			if len(walk) == 0 && len(asm) > 0 {
				// Nothing in the assembly mapped or induced (e.g. it shares
				// no minimizers with the graph and is below mcMinNovel).
				// Induce its backbone segmentation rather than silently
				// dropping the haplotype from the graph and every later
				// index extension.
				walk = segmentWalk(g, asm, cfg.SegmentLen)
				res.Stats.FallbackPaths++
			}
			if len(walk) > 0 {
				err = g.AddPath(names[ai], walk)
			}
			step.Induction = time.Since(t0)
		})
		if err != nil {
			return nil, err
		}

		// Extend the index with just the haplotype added above.
		timeStage(&bd.Alignment, func() {
			t0 := time.Now()
			paths := g.Paths()
			err = idx.AddPath(g, paths[len(paths)-1])
			step.IndexTime = time.Since(t0)
		})
		if err != nil {
			return nil, err
		}
		if cfg.indexCheck != nil {
			cfg.indexCheck(g, idx)
		}
		res.Growth = append(res.Growth, step)
	}

	// Polishing: GFAffix-style collapse of identical sibling nodes.
	timeStage(&bd.Polishing, func() {
		g, res.Stats.Collapsed, err = collapseSiblings(g)
	})
	if err != nil {
		return nil, err
	}
	res.Graph = g

	// Visualization: PG-SGD layout.
	if cfg.LayoutIterations > 0 {
		timeStage(&bd.Layout, func() {
			res.Layout, err = runLayout(g, cfg.LayoutIterations, probe)
		})
		if err != nil {
			return nil, err
		}
	}

	stats := g.ComputeStats()
	res.Stats.Nodes, res.Stats.Edges = stats.Nodes, stats.Edges
	return res, nil
}

// segmentWalk appends asm to g as consecutive backbone segments of at most
// segLen bases and returns the walk — the backbone segmentation used for
// the first assembly and for the empty-walk fallback.
func segmentWalk(g *graph.Graph, asm []byte, segLen int) []graph.NodeID {
	var walk []graph.NodeID
	for off := 0; off < len(asm); off += segLen {
		end := off + segLen
		if end > len(asm) {
			end = len(asm)
		}
		walk = append(walk, g.AddNode(asm[off:end]))
	}
	return walk
}

// nextMatched returns, for every plan index pi, the first matched node at
// or after pi (0 when none follows), in out[pi]; out has len(plan)+1
// entries so out[pi+1] is item pi's right flank. One reverse pass replaces
// the per-novel-item forward rescan of plan[pi+1:], which was quadratic on
// plans with long novel runs.
func nextMatched(plan []planItem) []graph.NodeID {
	out := make([]graph.NodeID, len(plan)+1)
	for pi := len(plan) - 1; pi >= 0; pi-- {
		if plan[pi].node != 0 {
			out[pi] = plan[pi].node
		} else {
			out[pi] = out[pi+1]
		}
	}
	return out
}

// mapAssembly maps one assembly against the graph chunk by chunk on a
// bounded worker pool (cfg.Workers; ≤0 uses GOMAXPROCS) and merges the
// per-chunk plans in chunk order, so the merged plan is identical for any
// worker count. Per-chunk GWFA wall time is accumulated race-free into
// bd.GWFA after the pool drains; per-chunk mapping wall times land in
// step.ChunkTimes (the Fig. 5 MC-growth task costs). An instrumented run
// (probe != nil) maps serially — the probe is not safe for concurrent use.
func mapAssembly(ctx context.Context, g *graph.Graph, idx *minimizer.GraphIndex, asm []byte, cfg MCConfig, step *GrowthStep, bd *StageBreakdown, probe *perf.Probe) ([]planItem, error) {
	var chunks []int
	for chunkLo := 0; chunkLo < len(asm); chunkLo += cfg.MapChunk {
		chunks = append(chunks, chunkLo)
	}
	type chunkResult struct {
		plan []planItem
		gwfa time.Duration
		wall time.Duration
	}
	results := make([]chunkResult, len(chunks))
	runChunk := func(ci int, pr *perf.Probe) {
		chunkLo := chunks[ci]
		chunkHi := chunkLo + cfg.MapChunk
		if chunkHi > len(asm) {
			chunkHi = len(asm)
		}
		t0 := time.Now()
		plan, gwfa := mapChunk(g, idx, asm[chunkLo:chunkHi], chunkLo, cfg, pr)
		results[ci] = chunkResult{plan: plan, gwfa: gwfa, wall: time.Since(t0)}
	}

	err := forEach(ctx, len(chunks), cfg.Workers, probe, func() func(int, *perf.Probe) { return runChunk })
	if err != nil {
		return nil, err
	}

	var plan []planItem
	for ci := range results {
		plan = append(plan, results[ci].plan...)
		bd.GWFA += results[ci].gwfa
		step.ChunkTimes = append(step.ChunkTimes, results[ci].wall)
	}
	return plan, nil
}

// mapChunk maps one assembly chunk against the graph: anchors → graph
// chaining → GWFA bridging at MinSpan stride, returning the chunk's walk
// plan in assembly coordinates (chunkLo is the chunk's offset) and the
// GWFA wall time spent bridging it.
func mapChunk(g *graph.Graph, idx *minimizer.GraphIndex, sub []byte, chunkLo int, cfg MCConfig, probe *perf.Probe) ([]planItem, time.Duration) {
	ms, err := minimizer.Compute(sub, cfg.K, cfg.W, probe)
	if err != nil {
		return nil, 0
	}
	var anchors []chain.Anchor
	for _, m := range ms {
		locs := idx.Lookup(m.Hash)
		if len(locs) > mcMaxOcc {
			locs = locs[:mcMaxOcc]
		}
		for _, loc := range locs {
			anchors = append(anchors, chain.Anchor{
				QPos: m.Pos, Node: loc.Node, Offset: loc.Offset, Len: cfg.K,
			})
		}
	}
	if len(anchors) > mcMaxChunkAnchors {
		stride := (len(anchors) + mcMaxChunkAnchors - 1) / mcMaxChunkAnchors
		kept := anchors[:0]
		for i := 0; i < len(anchors); i += stride {
			kept = append(kept, anchors[i])
		}
		anchors = kept
	}

	wholeNovel := func() []planItem {
		if len(sub) < mcMinNovel {
			return nil
		}
		return []planItem{{qLo: chunkLo, qHi: chunkLo + len(sub), dist: -1}}
	}
	if len(anchors) == 0 {
		return wholeNovel(), 0
	}
	chains := chain.GraphChains(g, anchors, 2*len(sub), probe)
	if len(chains) == 0 {
		return wholeNovel(), 0
	}
	best := chains[0]

	var gwfaTime time.Duration
	var plan []planItem
	// One wavefront workspace for every gap and piece of the chunk.
	var ws align.GWFAWorkspace
	first := best.Anchors[0]
	if first.QPos >= mcMinNovel {
		plan = append(plan, planItem{qLo: chunkLo, qHi: chunkLo + first.QPos, dist: -1})
	}
	plan = append(plan, planItem{node: first.Node})
	prev := first
	for _, cur := range best.Anchors[1:] {
		if cur.QPos-prev.QPos < cfg.MinSpan {
			continue
		}
		gapLo, gapHi := prev.QPos+prev.Len, cur.QPos
		if gapHi > gapLo {
			budget := int(mcDivergence * float64(gapHi-gapLo))
			t0 := time.Now()
			// Bridge from where the anchor starts, with the query extended
			// back over the anchor: its k exact matches cost nothing and
			// carry the wavefront across a node boundary the anchor
			// straddles, so the gap itself is measured from the anchor's
			// end in whichever node that falls.
			dist := gapDist(&ws, g, prev.Node, prev.Offset, sub[prev.QPos:gapHi], budget, probe)
			gwfaTime += time.Since(t0)
			if dist > budget && gapHi-gapLo >= mcMinNovel {
				plan = append(plan, planItem{qLo: chunkLo + gapLo, qHi: chunkLo + gapHi, dist: dist})
			}
		}
		plan = append(plan, planItem{node: cur.Node})
		prev = cur
	}
	if tail := prev.QPos + prev.Len; len(sub)-tail >= mcMinNovel {
		plan = append(plan, planItem{qLo: chunkLo + tail, qHi: chunkLo + len(sub), dist: -1})
	}
	return plan, gwfaTime
}

// gapDist measures the GWFA distance of gseq against the graph from offset
// off of node start, walking it in mcGWFACap-sized pieces and resuming each
// piece at the exact (node, offset) where the previous one ended, so the
// divergence decision covers the span it declares novel instead of judging
// a long gap by its first 2000 bp. The caller only asks whether the
// distance exceeds budget — its novelty threshold — so every piece is
// bounded by what is left of the budget and measurement stops the moment
// it is spent: a divergent gap costs budget+1 wavefronts, not its full
// distance, and the returned value is then budget+1.
func gapDist(ws *align.GWFAWorkspace, g *graph.Graph, start graph.NodeID, off int, gseq []byte, budget int, probe *perf.Probe) int {
	dist := 0
	for lo := 0; lo < len(gseq) && dist <= budget; lo += mcGWFACap {
		piece := gseq[lo:min(lo+mcGWFACap, len(gseq))]
		r, err := ws.AlignAt(g, start, off, piece, budget-dist, probe)
		if err != nil {
			// Only an invalid start node errs, and anchors and resume
			// points always name graph nodes.
			return budget + 1
		}
		dist += r.Distance
		start, off = r.EndNode, r.EndRef
	}
	return dist
}

// induceNovel resolves one novel query segment between the flanking anchor
// nodes key[0] and key[1]: reuse an existing alternative when the segment
// is close enough (WFA check), otherwise induce a new node whose sequence
// is the POA consensus of the segment and its existing alternatives,
// computed on p (reset here; the caller owns it for scratch reuse).
func induceNovel(g *graph.Graph, p *align.POA, novel map[[2]graph.NodeID][]graph.NodeID, key [2]graph.NodeID, seg []byte, bd *StageBreakdown, stats *Stats, probe *perf.Probe) graph.NodeID {
	for _, nd := range novel[key] {
		nseq := g.Seq(nd)
		// Only compare length-compatible alternatives.
		if len(nseq)*2 < len(seg) || len(seg)*2 < len(nseq) {
			continue
		}
		d := align.WFAEdit(seg, nseq, probe)
		span := len(seg)
		if len(nseq) > span {
			span = len(nseq)
		}
		if float64(d) <= mcDivergence*float64(span) {
			stats.ReusedNodes++
			return nd
		}
	}
	p.Reset()
	t0 := time.Now()
	alts := novel[key]
	if len(alts) > mcMaxPOAAlternatives {
		alts = alts[len(alts)-mcMaxPOAAlternatives:]
	}
	for _, nd := range alts {
		// POA errors only on empty sequences, which graph nodes never hold.
		_ = p.AddSequence(g.Seq(nd), probe)
	}
	_ = p.AddSequence(seg, probe)
	cons := p.Consensus()
	bd.POATime += time.Since(t0)
	nd := g.AddNode(cons)
	novel[key] = append(novel[key], nd)
	stats.NovelSegments++
	return nd
}

// collapseSiblings is the GFAffix-style polish pass: nodes with identical
// sequence and identical in-neighbor sets are merged, then nodes with
// identical sequence and identical out-neighbor sets (the reverse
// orientation), and the two passes iterate until no merge happens — the
// GFAffix fixpoint, since each merge can create new identical siblings one
// level downstream. Returns the polished graph and the total number of
// nodes collapsed.
//
// Merging never puts two copies of a sequence adjacent in a path: an edge
// x→y between merge candidates would require a self-loop (x ∈ in(x) or
// y ∈ out(y)), and paths only ever create edges between distinct nodes.
func collapseSiblings(g *graph.Graph) (*graph.Graph, int, error) {
	total := 0
	for {
		merged := 0
		for _, byOut := range []bool{false, true} {
			ng, m, err := collapseOnce(g, byOut)
			if err != nil {
				return nil, 0, err
			}
			g, merged, total = ng, merged+m, total+m
		}
		if merged == 0 {
			return g, total, nil
		}
	}
}

// collapseKey hashes one node's merge identity (sequence plus sorted
// neighbor set) with FNV-1a — a non-allocating composite key; candidates
// sharing a hash are verified byte-for-byte before merging.
func collapseKey(seq []byte, nbrs []graph.NodeID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range seq {
		h = (h ^ uint64(c)) * prime64
	}
	h = (h ^ 0xff) * prime64 // seq / neighbor-list separator
	for _, id := range nbrs {
		h = (h ^ uint64(uint32(id))) * prime64
	}
	return h
}

// collapseOnce runs one merge sweep keyed on (sequence, sorted in-neighbor
// set) — or the out-neighbor set when byOut — and rebuilds the graph with
// edges and paths remapped. Returns the (possibly unchanged) graph and the
// number of nodes collapsed.
func collapseOnce(g *graph.Graph, byOut bool) (*graph.Graph, int, error) {
	n := g.NumNodes()
	nbrsOf := func(id graph.NodeID) []graph.NodeID {
		var nb []graph.NodeID
		if byOut {
			nb = append(nb, g.Out(id)...)
		} else {
			nb = append(nb, g.In(id)...)
		}
		sort.Slice(nb, func(a, b int) bool { return nb[a] < nb[b] })
		return nb
	}
	sortedNbrs := make([][]graph.NodeID, n+1)
	remap := make([]graph.NodeID, n+1)
	canon := map[uint64][]graph.NodeID{}
	collapsed := 0
	for id := graph.NodeID(1); int(id) <= n; id++ {
		sortedNbrs[id] = nbrsOf(id)
		key := collapseKey(g.Seq(id), sortedNbrs[id])
		remap[id] = id
		for _, c := range canon[key] {
			if bytes.Equal(g.Seq(c), g.Seq(id)) && nodeIDsEqual(sortedNbrs[c], sortedNbrs[id]) {
				remap[id] = c
				collapsed++
				break
			}
		}
		if remap[id] == id {
			canon[key] = append(canon[key], id)
		}
	}
	if collapsed == 0 {
		return g, 0, nil
	}

	ng := graph.New()
	newID := make([]graph.NodeID, n+1)
	for id := graph.NodeID(1); int(id) <= n; id++ {
		if remap[id] == id {
			newID[id] = ng.AddNode(g.Seq(id))
		}
	}
	for id := graph.NodeID(1); int(id) <= n; id++ {
		newID[id] = newID[remap[id]]
	}
	for id := graph.NodeID(1); int(id) <= n; id++ {
		for _, to := range g.Out(id) {
			if newID[id] != newID[to] {
				ng.AddEdge(newID[id], newID[to])
			}
		}
	}
	for _, p := range g.Paths() {
		var walk []graph.NodeID
		for _, id := range p.Nodes {
			nd := newID[id]
			if len(walk) == 0 || walk[len(walk)-1] != nd {
				walk = append(walk, nd)
			}
		}
		if err := ng.AddPath(p.Name, walk); err != nil {
			return nil, 0, err
		}
	}
	return ng, collapsed, nil
}

func nodeIDsEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
