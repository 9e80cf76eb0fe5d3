package pipeline

import (
	"context"
	"fmt"
	"sort"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/chain"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/perf"
)

// GraphAligner models GraphAligner: minimizer seeding, lightweight
// clustering (~5% of runtime), no real filtering, and ~90% of time in GBV
// bitvector alignment (§2.1). Long reads are aligned in 64 bp chunks, each
// against a small subgraph extracted around the chunk's nearest seed —
// trading alignment quality for speed as the real tool does.
type GraphAligner struct {
	runner[gaScratch]

	g   *graph.Graph
	idx *minimizer.GraphIndex
	// Capture records GBV kernel inputs.
	Capture *[]GBVInput
	// Radius is the per-chunk subgraph extraction radius.
	Radius int
}

// subKey identifies one cached subgraph extraction.
type subKey struct {
	node   graph.NodeID
	radius int
}

// gaScratch is the per-goroutine working state: seeding scratch, the GBV
// workspace, and a bounded cache of subgraph extractions (chunks of nearby
// offsets repeatedly extract around the same anchor node; Extract is
// deterministic, so cache hits change nothing but the allocation count).
type gaScratch struct {
	seed    seedScratch
	anchors []chain.Anchor
	gbv     align.GBVWorkspace
	subs    map[subKey]*graph.Subgraph
}

// subgraph returns the (deterministic) extraction around node, cached.
func (s *gaScratch) subgraph(g *graph.Graph, node graph.NodeID, radius int) *graph.Subgraph {
	k := subKey{node, radius}
	if sub, ok := s.subs[k]; ok {
		return sub
	}
	if s.subs == nil {
		s.subs = make(map[subKey]*graph.Subgraph)
	} else if len(s.subs) >= 256 {
		clear(s.subs)
	}
	sub := graph.Extract(g, node, radius)
	s.subs[k] = sub
	return sub
}

// NewGraphAligner builds the tool.
func NewGraphAligner(g *graph.Graph, k, w int) (*GraphAligner, error) {
	idx, err := minimizer.NewGraphIndex(g, k, w)
	if err != nil {
		return nil, fmt.Errorf("pipeline: graphaligner: %w", err)
	}
	return NewGraphAlignerFromIndex(g, idx)
}

// Name implements Tool.
func (t *GraphAligner) Name() string { return "GraphAligner" }

// mapOne runs one read on the scratch: long reads align in 64 bp chunks, and
// cancellation is observed before every chunk — the finest-grained stop point
// of the four tools, matching GBV's ~90% share of GraphAligner's runtime.
func (t *GraphAligner) mapOne(ctx context.Context, s *gaScratch, read []byte, probe *perf.Probe, st *StageTimes) (Result, error) {
	done := ctx.Done()
	var anchors []chain.Anchor
	timeStageCtx(ctx, "seed", &st.Seed, func() {
		s.anchors = s.seed.seedInto(s.anchors[:0], t.idx, read, probe)
		anchors = s.anchors
	})
	if len(anchors) == 0 {
		return Result{}, nil
	}
	// Lightweight clustering: just sort anchors by query position and keep
	// the densest run — no chaining DP, no graph-distance queries.
	timeStageCtx(ctx, "chain", &st.Chain, func() {
		sort.Slice(anchors, func(i, j int) bool { return anchors[i].QPos < anchors[j].QPos })
	})

	best := Result{EditDistance: 1 << 30}
	canceled := false
	timeStageCtx(ctx, "align", &st.Align, func() {
		total := 0
		var endNode graph.NodeID
		ai := 0
		for off := 0; off < len(read); off += align.MaxMyersQuery {
			if stopped(done) {
				canceled = true
				return
			}
			end := off + align.MaxMyersQuery
			if end > len(read) {
				end = len(read)
			}
			chunk := read[off:end]
			// Nearest anchor to this chunk.
			for ai+1 < len(anchors) && anchors[ai+1].QPos <= off {
				ai++
			}
			sub := s.subgraph(t.g, anchors[ai].Node, t.Radius)
			if t.Capture != nil {
				*t.Capture = append(*t.Capture, GBVInput{Sub: sub.Graph, Query: chunk})
			}
			r, err := s.gbv.Align(sub.Graph, chunk, probe)
			if err != nil {
				total += len(chunk)
				continue
			}
			total += r.Distance
			if r.EndNode != 0 {
				endNode = sub.Orig[r.EndNode-1]
			}
		}
		if endNode != 0 || total < len(read)/2 {
			node := endNode
			if node == 0 {
				node = anchors[0].Node
			}
			best = Result{Mapped: true, Node: node, EditDistance: total}
		}
	})
	if canceled {
		return Result{}, ctx.Err()
	}
	return best, nil
}
