package pipeline

import (
	"context"
	"fmt"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/bio"
	"pangenomicsbench/internal/chain"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/perf"
)

// VgMap models vg map: minimizer seeding, graph-distance clustering, light
// filtering, and GSSW alignment of read fragments to acyclic subgraphs
// extracted around seed hits (§3, GSSW). Time is spread across all stages
// (Fig. 2) and the tool is the slowest of the four (Table 1) because GSSW
// computes full DP matrices.
type VgMap struct {
	runner[vgmapScratch]

	g   *graph.Graph
	idx *minimizer.GraphIndex
	sc  bio.Scoring
	// Capture, when non-nil, records GSSW kernel inputs.
	Capture *[]GSSWInput
	// Radius is the subgraph extraction radius in bp around a seed hit.
	Radius int
}

// vgmapScratch is the per-goroutine working state: seeding and chaining
// scratch plus the arena-backed GSSW workspace, so the striped DP matrices
// — the tool's dominant footprint — are reused across reads instead of
// reallocated per chain.
type vgmapScratch struct {
	seed    seedScratch
	anchors []chain.Anchor
	cs      chain.Scratch
	gssw    align.GSSWWorkspace
}

// NewVgMap builds the tool over a pangenome graph.
func NewVgMap(g *graph.Graph, k, w int) (*VgMap, error) {
	idx, err := minimizer.NewGraphIndex(g, k, w)
	if err != nil {
		return nil, fmt.Errorf("pipeline: vg map: %w", err)
	}
	return NewVgMapFromIndex(g, idx)
}

// Name implements Tool.
func (t *VgMap) Name() string { return "VgMap" }

// mapOne runs one read on the scratch: cancellation is observed between
// stages and before every per-chain GSSW alignment, the tool's dominant cost.
func (t *VgMap) mapOne(ctx context.Context, s *vgmapScratch, read []byte, probe *perf.Probe, st *StageTimes) (Result, error) {
	done := ctx.Done()
	var anchors []chain.Anchor
	timeStageCtx(ctx, "seed", &st.Seed, func() {
		s.anchors = s.seed.seedInto(s.anchors[:0], t.idx, read, probe)
		anchors = s.anchors
	})
	if len(anchors) == 0 {
		return Result{}, nil
	}

	var chains []chain.Chain
	timeStageCtx(ctx, "chain", &st.Chain, func() { chains = s.cs.GraphChains(t.g, anchors, 2*len(read), probe) })
	if len(chains) == 0 {
		return Result{}, nil
	}
	if stopped(done) {
		return Result{}, ctx.Err()
	}
	timeStageCtx(ctx, "filter", &st.Filter, func() { chains = chain.Filter(chains, 0.6, 3) })

	best := Result{}
	canceled := false
	timeStageCtx(ctx, "align", &st.Align, func() {
		radius := t.Radius
		if radius <= 0 {
			radius = len(read) + len(read)/2
		}
		for _, ch := range chains {
			if stopped(done) {
				canceled = true
				return
			}
			mid := ch.Anchors[len(ch.Anchors)/2]
			sub := graph.Extract(t.g, mid.Node, radius)
			dag := sub.Acyclify()
			if t.Capture != nil {
				*t.Capture = append(*t.Capture, GSSWInput{Sub: dag.Graph, Query: read})
			}
			r, err := s.gssw.Align(dag.Graph, read, t.sc, probe)
			if err != nil {
				continue
			}
			if r.Score > best.Score {
				node := graph.NodeID(0)
				if r.EndNode != 0 {
					node = dag.Orig[r.EndNode-1]
				}
				best = Result{Mapped: true, Node: node, Score: r.Score}
			}
		}
	})
	if canceled {
		return Result{}, ctx.Err()
	}
	return best, nil
}
