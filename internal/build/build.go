// Package build implements the two graph-construction pipelines the paper
// characterizes in Fig. 3: PGGB (all-to-all wfmash-style mapping → seqwish
// transclosure induction → smoothXG POA polish → ODGI PG-SGD layout) and
// Minigraph-Cactus (iterative graph growth: map each assembly against the
// growing graph with minimizer anchors and GWFA bridging, induce novel
// segments with POA, GFAffix-style polish, then layout).
//
// The package orchestrates the repo's substrates — internal/minimizer,
// internal/align (WFA, GWFA, POA), internal/seqwish, internal/layout — into
// full pipelines with a per-stage wall-time breakdown, mirroring the
// paper's stage taxonomy (Alignment, Induction, Polishing, Visualization).
// Every stage threads an optional *perf.Probe so the microarchitectural
// characterization (top-down, cache, instruction mix) covers construction
// the same way it covers the mapping kernels.
package build

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/layout"
	"pangenomicsbench/internal/perf"
)

// StageBreakdown is the per-stage wall-clock record of one construction
// run — the Fig. 3 row. Alignment/Induction/Polishing/Layout are the four
// top-level stages; TCTime, POATime and GWFA time the kernels nested inside
// them (TC inside PGGB induction, POA inside PGGB polishing and MC
// induction, GWFA inside MC alignment).
type StageBreakdown struct {
	Pipeline string

	Alignment time.Duration
	Induction time.Duration
	Polishing time.Duration
	Layout    time.Duration

	TCTime  time.Duration
	POATime time.Duration
	GWFA    time.Duration
}

// Total sums the four top-level stages.
func (b StageBreakdown) Total() time.Duration {
	return b.Alignment + b.Induction + b.Polishing + b.Layout
}

// Stats summarizes what one construction run produced.
type Stats struct {
	Assemblies   int
	Pairs        int // PGGB: all-vs-all pairs matched
	MatchBlocks  int // PGGB: exact match blocks fed to the transclosure
	MatchedBases int // PGGB: total bases covered by match blocks
	Closures     int // PGGB: transitive-closure sets before compaction

	NovelSegments int // MC: query segments inducing new nodes
	ReusedNodes   int // MC: novel segments resolved to an existing node
	Collapsed     int // MC: sibling nodes merged by the GFAffix-style polish
	FallbackPaths int // MC: assemblies induced whole after an empty walk plan

	Nodes, Edges int // final graph size
	PolishBlocks int // POA-polished partitions
	ConsensusLen int // total polished consensus length
}

// GrowthStep is the measured cost profile of one Minigraph-Cactus growth
// step: one assembly mapped against the growing graph and induced into it.
// Chunk mapping parallelizes inside a step; induction and the incremental
// index extension are sequential; steps chain sequentially (step i+1 maps
// against the graph step i grew). These are the task costs behind the
// Fig. 5 MC-growth scaling curve.
type GrowthStep struct {
	Assembly   string
	ChunkTimes []time.Duration // per-chunk mapping wall time (parallel)
	Induction  time.Duration   // plan materialization + POA (sequential)
	IndexTime  time.Duration   // incremental index extension (sequential)
}

// Result is the output of one pipeline run.
type Result struct {
	Graph     *graph.Graph
	Layout    *layout.Layout // nil when LayoutIterations <= 0
	Breakdown StageBreakdown
	Stats     Stats
	Growth    []GrowthStep // MC only: per-assembly growth cost profile
}

// timeStage runs fn and adds its wall time to *d.
func timeStage(d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*d += time.Since(t0)
}

// forEach runs the n independent units of work of one pipeline stage on a
// pool of at most workers goroutines (≤0 uses GOMAXPROCS). newWorker is
// called once per goroutine and returns that worker's unit function, so
// per-worker scratch is the closure's state; units are handed out in index
// order and must write their results to per-index slots, which makes the
// caller's in-order reduction independent of workers. An instrumented run
// (probe != nil) executes serially on the calling goroutine with the probe —
// it is not safe for concurrent use; pooled units get a nil probe. ctx is
// checked before each unit; forEach returns ctx.Err() if it was cancelled,
// after every worker has exited.
func forEach(ctx context.Context, n, workers int, probe *perf.Probe, newWorker func() func(i int, probe *perf.Probe)) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if probe != nil || workers <= 1 {
		unit := newWorker()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			unit(i, probe)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			unit := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				unit(i, nil)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// layoutSeed seeds the initial layout of both pipelines' visualization
// stage.
const layoutSeed = 42

// runLayout is the shared visualization stage: PG-SGD over the final graph.
func runLayout(g *graph.Graph, iterations int, probe *perf.Probe) (*layout.Layout, error) {
	l, err := layout.New(g, layoutSeed)
	if err != nil {
		return nil, err
	}
	params := layout.DefaultParams(g)
	params.Iterations = iterations
	l.Run(params, probe)
	return l, nil
}
