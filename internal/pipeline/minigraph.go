package pipeline

import (
	"context"
	"fmt"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/chain"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/perf"
)

// Minigraph models minigraph's Seq2Graph mapping: minimizer seeding, then a
// heavy 2D-DP chaining stage that bridges the gaps between consecutive
// anchors with the GWFA kernel (§2.1: GWFA is 47% of chaining for long
// reads, 75% for chromosome assemblies), then filtering and a final base-
// level alignment. Mode "cr" maps whole assemblies (larger gaps → more
// GWFA work per bridge), mode "lr" maps long reads.
type Minigraph struct {
	runner[mgScratch]

	g   *graph.Graph
	idx *minimizer.GraphIndex
	// ChromosomeMode selects the -cr configuration (assembly mapping).
	ChromosomeMode bool
	// Capture records GWFA kernel inputs.
	Capture *[]GWFAInput
	// GWFATime accumulates time spent inside the GWFA kernel (to report
	// the kernel fraction of the chaining stage, Fig. 2).
	GWFATime *StageTimes
}

// mgScratch is the per-goroutine working state: seeding and chaining
// scratch plus the reusable GWFA wavefront workspace, so every anchor
// bridge and final alignment reuses the wavefront rows and point slices
// instead of reallocating them (GWFA runs many times per read).
type mgScratch struct {
	seed    seedScratch
	anchors []chain.Anchor
	cs      chain.Scratch
	gwfa    align.GWFAWorkspace
}

// NewMinigraph builds the tool.
func NewMinigraph(g *graph.Graph, k, w int, chromosomeMode bool) (*Minigraph, error) {
	idx, err := minimizer.NewGraphIndex(g, k, w)
	if err != nil {
		return nil, fmt.Errorf("pipeline: minigraph: %w", err)
	}
	return NewMinigraphFromIndex(g, idx, chromosomeMode)
}

// Name implements Tool.
func (t *Minigraph) Name() string {
	if t.ChromosomeMode {
		return "Minigraph-cr"
	}
	return "Minigraph-lr"
}

// mapOne runs one read on the scratch: cancellation is observed before
// every GWFA anchor bridge — the dominant cost of minigraph's chaining stage
// — and before the final base-level alignment.
func (t *Minigraph) mapOne(ctx context.Context, s *mgScratch, read []byte, probe *perf.Probe, st *StageTimes) (Result, error) {
	done := ctx.Done()
	var anchors []chain.Anchor
	timeStageCtx(ctx, "seed", &st.Seed, func() {
		s.anchors = s.seed.seedInto(s.anchors[:0], t.idx, read, probe)
		anchors = s.anchors
	})
	if len(anchors) == 0 {
		return Result{}, nil
	}

	// Chaining: 2D DP over anchors, then GWFA bridges between consecutive
	// anchors of the best chain.
	var chains []chain.Chain
	bridged := 0
	canceled := false
	timeStageCtx(ctx, "chain", &st.Chain, func() {
		maxGap := 2 * len(read)
		if t.ChromosomeMode {
			maxGap = 4 * len(read)
		}
		chains = s.cs.GraphChains(t.g, anchors, maxGap, probe)
		if len(chains) == 0 {
			return
		}
		best := chains[0]
		// Bridge between anchors with GWFA. Minimizer anchors are dense,
		// so bridging subsamples the chain: the next bridge target is the
		// first anchor at least minSpan query bp further. Chromosome mode
		// uses coarser default parameters, so its bridged gaps are larger
		// (§2.1/§5.2: chromosome gaps cover more nodes, and GWFA is 75% of
		// chaining for assemblies vs 47% for long reads).
		minSpan := 192
		if t.ChromosomeMode {
			minSpan = 512
		}
		prev := best.Anchors[0]
		for i := 1; i < len(best.Anchors); i++ {
			if stopped(done) {
				canceled = true
				return
			}
			cur := best.Anchors[i]
			if cur.QPos-prev.QPos < minSpan {
				continue
			}
			gapLo := prev.QPos + prev.Len
			gapHi := cur.QPos
			if gapHi <= gapLo {
				prev = cur
				continue
			}
			gapSeq := read[gapLo:gapHi]
			if t.Capture != nil {
				*t.Capture = append(*t.Capture, GWFAInput{G: t.g, Start: prev.Node, Query: gapSeq})
			}
			var gst StageTimes
			timeStage(&gst.Chain, func() {
				_, _ = s.gwfa.Align(t.g, prev.Node, gapSeq, probe)
			})
			if t.GWFATime != nil {
				t.GWFATime.Chain += gst.Chain
			}
			bridged++
			prev = cur
		}
	})
	if canceled {
		return Result{}, ctx.Err()
	}
	if len(chains) == 0 {
		return Result{}, nil
	}
	if stopped(done) {
		return Result{}, ctx.Err()
	}

	timeStageCtx(ctx, "filter", &st.Filter, func() { chains = chain.Filter(chains, 0.7, 2) })

	// Final base-level alignment: edit distance of the read against the
	// graph from the chain start (WFA-style refinement).
	best := Result{EditDistance: 1 << 30}
	timeStageCtx(ctx, "align", &st.Align, func() {
		ch := chains[0]
		start := ch.Anchors[0].Node
		// Cap the aligned span in chromosome mode so one call stays
		// tractable (minigraph aligns between anchors, not end to end).
		query := read
		if len(query) > 2000 {
			query = query[:2000]
		}
		r, err := s.gwfa.Align(t.g, start, query, probe)
		if err == nil {
			best = Result{Mapped: true, Node: start, EditDistance: r.Distance}
		}
	})
	return best, nil
}
