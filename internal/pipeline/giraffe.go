package pipeline

import (
	"context"
	"fmt"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/chain"
	"pangenomicsbench/internal/gbwt"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/perf"
)

// VgGiraffe models vg giraffe: minimizer seeding, cheap clustering over a
// precomputed distance index, and a sophisticated, time-dominant filtering
// step that gaplessly extends every clustered seed along real haplotypes
// with GBWT index queries (§2.1, §3). Full alignment only runs for reads
// whose extensions fail — the design that makes Giraffe the fastest
// Seq2Graph tool (Table 1).
type VgGiraffe struct {
	runner[giraffeScratch]

	g   *graph.Graph
	idx *minimizer.GraphIndex
	hap *gbwt.Index
	// nodePos approximates each node's linear coordinate (Giraffe's
	// offline distance index), making cluster distance checks O(1).
	nodePos map[graph.NodeID]int
	// Capture records the GBWT kernel queries.
	Capture *[]GBWTInput
}

// giraffeExt is one haplotype extension candidate; its reference sequence
// lives in the scratch arena as an offset span, not an owned slice.
type giraffeExt struct {
	startNode      graph.NodeID
	mismatches     int
	refOff, refLen int
}

// giraffeScratch is the per-goroutine working state of the mapping path:
// seeding and chaining scratch, the extension byte arena (refSeq spans),
// node-walk buffers and the extension candidates. All buffers are grow-only.
type giraffeScratch struct {
	seed    seedScratch
	anchors []chain.Anchor
	cs      chain.Scratch
	arena   []byte         // refSeq arena; reset per read
	nodes   []graph.NodeID // forward walk of the current extension
	preds   []graph.NodeID // backward walk, in discovery order
	exts    []giraffeExt
}

// NewVgGiraffe builds the tool, including its GBWT haplotype index and
// distance index.
func NewVgGiraffe(g *graph.Graph, k, w int) (*VgGiraffe, error) {
	idx, err := minimizer.NewGraphIndex(g, k, w)
	if err != nil {
		return nil, fmt.Errorf("pipeline: giraffe: %w", err)
	}
	hap, err := gbwt.Build(g)
	if err != nil {
		return nil, fmt.Errorf("pipeline: giraffe: %w", err)
	}
	return NewVgGiraffeFromIndexes(g, idx, hap)
}

// Name implements ContextTool.
func (t *VgGiraffe) Name() string { return "VgGiraffe" }

// mapOne runs one read's seed → chain → filter → align pipeline on the
// scratch. Cancellation is observed between stages and at every cluster of
// the dominant haplotype-extension loop.
func (t *VgGiraffe) mapOne(ctx context.Context, s *giraffeScratch, read []byte, probe *perf.Probe, st *StageTimes) (Result, error) {
	done := ctx.Done()
	s.arena = s.arena[:0]
	var anchors []chain.Anchor
	timeStageCtx(ctx, "seed", &st.Seed, func() {
		s.anchors = s.seed.seedInto(s.anchors[:0], t.idx, read, probe)
		anchors = s.anchors
	})
	if len(anchors) == 0 {
		return Result{}, nil
	}

	// Clustering over the distance index: anchors get approximate linear
	// coordinates, then coordinate-based chaining (O(1) per pair — no
	// graph traversal, unlike Vg Map).
	var clusters []chain.Chain
	timeStageCtx(ctx, "chain", &st.Chain, func() {
		for i := range anchors {
			anchors[i].RPos = t.nodePos[anchors[i].Node] + anchors[i].Offset
			probe.Op(perf.ScalarInt, 2)
		}
		clusters = s.cs.Linear(anchors, 2*len(read), probe)
		clusters = chain.Filter(clusters, 0.4, 4)
	})
	if len(clusters) == 0 {
		return Result{}, nil
	}
	if stopped(done) {
		return Result{}, ctx.Err()
	}

	// Filtering: gapless haplotype extension of every seed of every
	// cluster through the GBWT (Fig. 4c) — Giraffe's dominant stage.
	s.exts = s.exts[:0]
	canceled := false
	timeStageCtx(ctx, "filter", &st.Filter, func() {
		for _, cl := range clusters {
			if stopped(done) {
				canceled = true
				return
			}
			for _, an := range cl.Anchors {
				refOff, refLen, anchorStart, ok := t.extendSeedInto(s, an, read, probe)
				if !ok {
					continue
				}
				refSeq := s.arena[refOff : refOff+refLen]
				// Gapless scoring of the read against the haplotype
				// sequence, aligned by the anchor.
				shift := anchorStart + an.Offset - an.QPos
				mism := 0
				for i := 0; i < len(read); i++ {
					probe.Op(perf.ScalarInt, 2)
					j := shift + i
					if j < 0 || j >= len(refSeq) || read[i] != refSeq[j] {
						mism++
					}
				}
				probe.TakeBranch(0x62, mism <= 6)
				s.exts = append(s.exts, giraffeExt{an.Node, mism, refOff, refLen})
			}
		}
	})
	if canceled {
		return Result{}, ctx.Err()
	}
	if len(s.exts) == 0 {
		return Result{}, nil
	}

	best := Result{EditDistance: 1 << 30}
	timeStageCtx(ctx, "align", &st.Align, func() {
		// Best extension; full alignment only if every extension failed.
		bi := 0
		for i := range s.exts {
			if s.exts[i].mismatches < s.exts[bi].mismatches {
				bi = i
			}
		}
		e := s.exts[bi]
		if e.mismatches <= 6 {
			best = Result{Mapped: true, Node: e.startNode, EditDistance: e.mismatches}
			return
		}
		refSeq := s.arena[e.refOff : e.refOff+e.refLen]
		total := 0
		for off := 0; off < len(read); off += align.MaxMyersQuery {
			end := off + align.MaxMyersQuery
			if end > len(read) {
				end = len(read)
			}
			r, err := align.Myers64(refSeq, read[off:end], probe)
			if err != nil {
				total += end - off
				continue
			}
			total += r.Distance
		}
		best = Result{Mapped: true, Node: e.startNode, EditDistance: total}
	})
	return best, nil
}

// extendSeedInto walks from a seed's node along haplotypes in both
// directions until the read is covered: forward through GBWT states,
// backward through the predecessor whose sequence best matches the read
// prefix. The walk's sequence is materialized into the scratch arena; the
// return values are its span (offset, length), the offset of the anchor
// node's start within it, and whether any haplotype visits the seed at all.
func (t *VgGiraffe) extendSeedInto(s *giraffeScratch, an chain.Anchor, read []byte, probe *perf.Probe) (refOff, refLen, anchorStart int, ok bool) {
	state := t.hap.Start(an.Node)
	if state.Empty() {
		return 0, 0, 0, false
	}
	s.nodes = append(s.nodes[:0], an.Node)
	seqLen := len(t.g.Seq(an.Node))
	for seqLen < len(read)+32 {
		next := t.widestHop(&state, probe)
		if next == 0 {
			break
		}
		s.nodes = append(s.nodes, next)
		seqLen += len(t.g.Seq(next))
	}
	// Backward: prepend the predecessor whose suffix matches the read
	// bases that should precede the current walk.
	s.preds = s.preds[:0]
	needed := an.QPos - an.Offset // read bases before the anchor node
	cur := an.Node
	for needed > 0 {
		preds := t.g.In(cur)
		if len(preds) == 0 {
			break
		}
		bestPred, bestScore := graph.NodeID(0), -1
		for _, p := range preds {
			seq := t.g.Seq(p)
			score := 0
			for i := 0; i < len(seq) && i < needed; i++ {
				probe.Op(perf.ScalarInt, 2)
				if read[needed-1-i] == seq[len(seq)-1-i] {
					score++
				}
			}
			if score > bestScore {
				bestScore, bestPred = score, p
			}
		}
		probe.TakeBranch(0x63, len(preds) > 1)
		s.preds = append(s.preds, bestPred)
		anchorStart += len(t.g.Seq(bestPred))
		needed -= len(t.g.Seq(bestPred))
		cur = bestPred
	}
	// Materialize: predecessors outermost-first, then the forward walk —
	// the same concatenation the prepend loop used to build one byte at a
	// time with a fresh slice per step.
	refOff = len(s.arena)
	for i := len(s.preds) - 1; i >= 0; i-- {
		s.arena = append(s.arena, t.g.Seq(s.preds[i])...)
	}
	for _, id := range s.nodes {
		s.arena = append(s.arena, t.g.Seq(id)...)
	}
	refLen = len(s.arena) - refOff
	if t.Capture != nil {
		walk := make([]graph.NodeID, 0, len(s.preds)+len(s.nodes))
		for i := len(s.preds) - 1; i >= 0; i-- {
			walk = append(walk, s.preds[i])
		}
		walk = append(walk, s.nodes...)
		*t.Capture = append(*t.Capture, GBWTInput{Nodes: walk})
	}
	return refOff, refLen, anchorStart, true
}

// widestHop advances the state to the most frequent haplotype successor,
// returning 0 when every haplotype ends.
func (t *VgGiraffe) widestHop(state *gbwt.State, probe *perf.Probe) graph.NodeID {
	var bestNode graph.NodeID
	var bestState gbwt.State
	for _, succ := range t.g.Out(state.Node) {
		s := t.hap.Extend(*state, succ, probe)
		if s.Size() > bestState.Size() {
			bestState, bestNode = s, succ
		}
	}
	if bestNode == 0 {
		return 0
	}
	*state = bestState
	return bestNode
}
