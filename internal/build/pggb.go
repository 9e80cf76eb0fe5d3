package build

import (
	"context"
	"fmt"
	"time"

	"pangenomicsbench/internal/align"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/seqwish"
)

// PGGBConfig parameterizes the PGGB pipeline model.
type PGGBConfig struct {
	// K, W select the (w,k)-minimizer scheme of the all-vs-all mapping.
	K, W int
	// Workers bounds the all-vs-all and polish-window worker pools; ≤0
	// uses GOMAXPROCS.
	Workers int
	// LayoutIterations is the PG-SGD iteration count of the visualization
	// stage; ≤0 disables layout.
	LayoutIterations int
}

// DefaultPGGBConfig mirrors pggb defaults scaled to the benchmark datasets.
func DefaultPGGBConfig() PGGBConfig {
	return PGGBConfig{K: 15, W: 10, LayoutIterations: 4}
}

// Polish bounds of the PGGB model (fixed, like the PairMatches knobs).
const (
	// polishWindow is the smoothXG partition size in backbone bp.
	polishWindow = 600
	// pggbPOABand is the adaptive band half-width of the polish POA.
	pggbPOABand = 48
)

// PGGB runs the PGGB pipeline model over the named assemblies:
//
//  1. Alignment — all-vs-all pair matching (minimizer anchors refined by
//     WFA, see PairMatches) on a bounded worker pool.
//  2. Induction — seqwish: the transclosure kernel over the match blocks
//     (timed separately as TCTime) and graph induction with path embedding.
//  3. Polishing — smoothXG model: the backbone is partitioned into
//     polishWindow-bp blocks, every assembly's projection of each block is
//     realigned with banded POA and a consensus taken, on the same bounded
//     pool (the window section is timed as POATime).
//  4. Visualization — PG-SGD layout of the induced graph.
//
// ctx cancels the run between pipeline units of work (pairs, polish
// windows); a nil ctx behaves like context.Background(). The run is
// deterministic for fixed inputs and config, independent of Workers and
// GOMAXPROCS.
func PGGB(ctx context.Context, names []string, seqs [][]byte, cfg PGGBConfig, probe *perf.Probe) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(names) != len(seqs) || len(seqs) < 2 {
		return nil, fmt.Errorf("build: PGGB needs ≥2 named assemblies (got %d names, %d seqs)", len(names), len(seqs))
	}

	// 1. Alignment: parallel all-vs-all matching.
	var blocks []MatchBlock
	var mst PairStats
	var err error
	var alignTime time.Duration
	timeStage(&alignTime, func() {
		blocks, mst, err = AllPairMatches(ctx, seqs, cfg.K, cfg.W, cfg.Workers, probe)
	})
	if err != nil {
		return nil, err
	}
	res, err := PGGBFromMatches(ctx, names, seqs, blocks, mst, cfg, probe)
	if err != nil {
		return nil, err
	}
	res.Breakdown.Alignment = alignTime
	return res, nil
}

// PGGBFromMatches runs the PGGB pipeline downstream of the alignment stage:
// induction, polishing and layout over an already-computed set of match
// blocks (with their aggregate PairStats). This is the entry point the
// serve-mode build service uses when overlapping cohorts reuse cached
// per-pair match results — the returned Result is identical to PGGB's for
// the same blocks, except Breakdown.Alignment, which belongs to whoever
// produced the blocks.
func PGGBFromMatches(ctx context.Context, names []string, seqs [][]byte, blocks []MatchBlock, mst PairStats, cfg PGGBConfig, probe *perf.Probe) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(names) != len(seqs) || len(seqs) < 2 {
		return nil, fmt.Errorf("build: PGGB needs ≥2 named assemblies (got %d names, %d seqs)", len(names), len(seqs))
	}
	res := &Result{}
	bd := &res.Breakdown
	bd.Pipeline = "PGGB"
	res.Stats.Assemblies = len(seqs)
	res.Stats.Pairs = len(seqs) * (len(seqs) - 1) / 2
	res.Stats.MatchBlocks = mst.Blocks
	res.Stats.MatchedBases = mst.MatchedBases

	// 2. Induction: transclosure + graph emission.
	var err error
	timeStage(&bd.Induction, func() {
		var b *seqwish.Builder
		b, err = seqwish.NewBuilder(names, seqs)
		if err != nil {
			return
		}
		for _, blk := range blocks {
			if err = b.AddMatch(blk.SeqA, blk.PosA, blk.SeqB, blk.PosB, blk.Len); err != nil {
				return
			}
		}
		var tc *seqwish.TC
		timeStage(&bd.TCTime, func() { tc = b.Transclose(probe) })
		res.Stats.Closures = tc.NumClosures()
		res.Graph, err = tc.InduceGraph()
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// 3. Polishing: smoothXG-style partitioned POA.
	timeStage(&bd.Polishing, func() { err = polish(ctx, seqs, cfg, res, probe) })
	if err != nil {
		return nil, err
	}

	// 4. Visualization: PG-SGD layout.
	if cfg.LayoutIterations > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		timeStage(&bd.Layout, func() {
			res.Layout, err = runLayout(res.Graph, cfg.LayoutIterations, probe)
		})
		if err != nil {
			return nil, err
		}
	}

	stats := res.Graph.ComputeStats()
	res.Stats.Nodes, res.Stats.Edges = stats.Nodes, stats.Edges
	return res, nil
}

// polish is the smoothXG model: the backbone is cut into polishWindow-bp
// windows, and each window's projections onto every assembly are realigned
// with banded POA and a consensus taken. Windows are independent, so they
// run on the cfg.Workers pool, one reused POA per worker (scratch scoped to
// this build); each window writes its own slot and the slots are reduced
// in window order. Breakdown.POATime is the wall time of the window
// section.
func polish(ctx context.Context, seqs [][]byte, cfg PGGBConfig, res *Result, probe *perf.Probe) error {
	base := seqs[0]
	nwin := (len(base) + polishWindow - 1) / polishWindow
	consLen := make([]int, nwin)
	errs := make([]error, nwin)
	t0 := time.Now()
	err := forEach(ctx, nwin, cfg.Workers, probe, func() func(int, *perf.Probe) {
		p := align.NewPOA()
		p.Band = pggbPOABand
		return func(wi int, pr *perf.Probe) {
			start := wi * polishWindow
			end := min(start+polishWindow, len(base))
			p.Reset()
			for _, s := range seqs {
				// Proportional projection of the backbone block onto
				// each assembly (smoothXG cuts blocks in graph space;
				// path-coordinate projection is the linear analogue).
				lo := start * len(s) / len(base)
				hi := end * len(s) / len(base)
				if hi <= lo {
					continue
				}
				if errs[wi] = p.AddSequence(s[lo:hi], pr); errs[wi] != nil {
					return
				}
			}
			consLen[wi] = len(p.Consensus())
		}
	})
	res.Breakdown.POATime += time.Since(t0)
	if err != nil {
		return err
	}
	for wi := range consLen {
		if errs[wi] != nil {
			return errs[wi]
		}
		res.Stats.PolishBlocks++
		res.Stats.ConsensusLen += consLen[wi]
	}
	return nil
}
