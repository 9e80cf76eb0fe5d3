// Package pipeline models the four end-to-end Seq2Graph mapping tools the
// paper analyzes (§2.1, Fig. 2): Vg Map, Vg Giraffe, GraphAligner, and
// Minigraph (long-read and chromosome modes). Each tool follows the common
// seed → cluster/chain → filter → align structure of Fig. 1 but makes the
// trade-offs of its namesake: Vg Map spends everywhere and aligns with
// GSSW; Giraffe's haplotype-aware GBWT filter dominates; GraphAligner
// skips filtering and burns ~90% in GBV alignment; Minigraph does heavy
// 2D chaining with GWFA bridging. Each stage is wall-timed, and each tool
// can capture the inputs reaching its kernel — exactly how the paper builds
// its kernel datasets (§4.2).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pangenomicsbench/internal/chain"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/minimizer"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/seqmap"
)

// StageTimes re-exports the per-stage timing type shared with seqmap.
type StageTimes = seqmap.StageTimes

// Result is one read's mapping outcome.
type Result struct {
	Mapped bool
	// Node is the mapped location's node (alignment end or chain start,
	// tool-dependent).
	Node graph.NodeID
	// Score is an alignment score (GSSW-based tools) …
	Score int
	// … or EditDistance an edit distance (GBV/GWFA-based tools).
	EditDistance int
}

// ContextTool is a Seq2Graph mapper model whose mapping loops honor context
// cancellation: MapCtx returns ctx.Err() as soon as the deadline or
// cancellation is observed at a loop boundary (per cluster, chunk, or
// bridge), abandoning the rest of the read. ctx.Err() is its only error, so
// a caller passing context.Background() may drop it. All four tools in this
// package implement it. The serve-mode mapping executor relies on this to
// stop a query when its deadline expires.
//
// MapBatch maps reads[i] into the caller-owned results[i] and stages[i]
// (both must be at least len(reads) long) and returns the number of leading
// reads completed. It is the MapCtx loop on one warm scratch: results are
// byte-identical to calling MapCtx once per read at any batch size, and
// each read's stage times are measured around its own work. When ctx is
// canceled mid-batch, MapBatch returns (n, *BatchError) with results[:n]
// and stages[:n] valid and the rest unmapped.
type ContextTool interface {
	Name() string
	MapCtx(ctx context.Context, read []byte, probe *perf.Probe) (Result, StageTimes, error)
	MapBatch(ctx context.Context, reads [][]byte, results []Result, stages []StageTimes, probe *perf.Probe) (int, error)
}

// runner defines the two mapping entry points once, over a tool's single
// mapOne. Each tool embeds a runner of its scratch type and binds mapOne in
// its constructor; the pool keeps one grow-only scratch per goroutine warm,
// which is what holds the steady-state path near zero allocations.
type runner[S any] struct {
	pool sync.Pool // *warm[S]
	one  func(ctx context.Context, s *S, read []byte, probe *perf.Probe, st *StageTimes) (Result, error)
}

// warm is one pooled scratch plus the StageTimes MapCtx lends to mapOne:
// the call through runner.one is indirect, so a local StageTimes would
// escape to the heap once per read.
type warm[S any] struct {
	scratch S
	st      StageTimes
}

func (r *runner[S]) get() *warm[S] {
	w, _ := r.pool.Get().(*warm[S])
	if w == nil {
		w = new(warm[S])
	}
	return w
}

// MapCtx implements ContextTool.
func (r *runner[S]) MapCtx(ctx context.Context, read []byte, probe *perf.Probe) (Result, StageTimes, error) {
	w := r.get()
	defer r.pool.Put(w)
	w.st = StageTimes{}
	res, err := r.one(ctx, &w.scratch, read, probe, &w.st)
	return res, w.st, err
}

// MapBatch implements ContextTool.
func (r *runner[S]) MapBatch(ctx context.Context, reads [][]byte, results []Result, stages []StageTimes, probe *perf.Probe) (int, error) {
	if err := checkBatchArgs(reads, results, stages); err != nil {
		return 0, err
	}
	w := r.get()
	defer r.pool.Put(w)
	done := ctx.Done()
	for i, read := range reads {
		results[i], stages[i] = Result{}, StageTimes{}
		if stopped(done) {
			return i, &BatchError{Done: i, Err: ctx.Err()}
		}
		res, err := r.one(ctx, &w.scratch, read, probe, &stages[i])
		if err != nil {
			return i, &BatchError{Done: i, Err: err}
		}
		results[i] = res
	}
	return len(reads), nil
}

// BatchError is the typed error of a MapBatch call that stopped before
// mapping every read (cancellation or deadline mid-batch). Done is the
// number of leading reads whose results and stage times are valid — the
// same count MapBatch returns — and Err is the cause (ctx.Err()), reachable
// through errors.Is/As via Unwrap.
type BatchError struct {
	Done int
	Err  error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("pipeline: batch stopped after %d reads: %v", e.Done, e.Err)
}

// Unwrap exposes the cause, so errors.Is(err, context.Canceled) works.
func (e *BatchError) Unwrap() error { return e.Err }

var errBatchSlices = errors.New("pipeline: MapBatch results/stages shorter than reads")

// checkBatchArgs validates the caller-owned output slices of MapBatch.
func checkBatchArgs(reads [][]byte, results []Result, stages []StageTimes) error {
	if len(results) < len(reads) || len(stages) < len(reads) {
		return errBatchSlices
	}
	return nil
}

// seedScratch holds the reusable buffers of the shared seeding stage: the
// minimizer rolling state and the minimizer output slice.
type seedScratch struct {
	msc minimizer.Scratch
	ms  []minimizer.Minimizer
}

// seedInto is the allocation-free seeding stage: minimizers of the read,
// under the scheme (k, w) the index was built with, looked up in the graph
// index, anchors appended to dst.
func (s *seedScratch) seedInto(dst []chain.Anchor, idx *minimizer.GraphIndex, read []byte, probe *perf.Probe) []chain.Anchor {
	k := idx.K()
	ms, err := s.msc.ComputeInto(s.ms[:0], read, k, idx.W(), probe)
	s.ms = ms
	if err != nil {
		return dst
	}
	for _, m := range ms {
		for _, loc := range idx.Lookup(m.Hash) {
			dst = append(dst, chain.Anchor{
				QPos: m.Pos, Node: loc.Node, Offset: loc.Offset, Len: k,
			})
		}
	}
	return dst
}

// stopped reports whether a context's done channel has fired. Mapping loops
// poll it at their iteration boundaries; a nil channel (context.Background)
// never fires and costs only the select.
func stopped(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Kernel input captures (paper §4.2: "running the tool with datasets …
// up until the kernel and then storing the inputs to the kernel").

// GSSWInput is one captured Vg Map alignment problem.
type GSSWInput struct {
	Sub   *graph.Graph // acyclic local subgraph
	Query []byte
}

// GBWTInput is one captured Giraffe haplotype-extension query.
type GBWTInput struct {
	Nodes []graph.NodeID
}

// GBVInput is one captured GraphAligner cluster alignment.
type GBVInput struct {
	Sub   *graph.Graph
	Query []byte // ≤64 bp chunk
}

// GWFAInput is one captured Minigraph anchor-bridging problem.
type GWFAInput struct {
	G     *graph.Graph
	Start graph.NodeID
	Query []byte
}

// timeStage runs fn and adds its wall time to *d.
func timeStage(d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*d += time.Since(t0)
}

// timeStageCtx is timeStage plus trace attribution: when the serve tier
// threaded an obs span into ctx (the same ctx MapCtx already carries for
// cancellation), the stage is also recorded as a completed child span, so
// every mapped read's trace breaks down into the kernel's own stages. With
// no span in ctx the extra cost is one context lookup — no allocations.
func timeStageCtx(ctx context.Context, name string, d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	dur := time.Since(t0)
	*d += dur
	obs.AddStage(ctx, name, t0, dur)
}
