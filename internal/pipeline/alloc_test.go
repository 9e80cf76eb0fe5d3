package pipeline

import (
	"context"
	"testing"
)

// TestMapCtxAllocs pins the hot-path allocation fixes of the batched
// mapping sweep, in the style of align's poa_alloc_test.go: once a tool's
// pooled scratch has warmed, a MapCtx call must stay at a small constant
// allocation count. Before the sweep, every call paid per-read slices in
// seeding (minimizer hashes/valid/output, the seedGraph anchor slice),
// chaining (anchor copy, score/prev/order/used, chain arenas, the distance
// memo), and the kernels (GBV queue and profiles, GSSW DP matrices, GWFA
// wavefronts, giraffe refSeq extension buffers) — hundreds to tens of
// thousands of allocations per read. The bounds below are the measured
// steady state with ~2x headroom (Minigraph-lr: 1.2× its measured 157); a
// regression back to per-read buffers blows through them immediately.
func TestMapCtxAllocs(t *testing.T) {
	pop, tools := ctxTestTools(t)
	reads := batchTestReads(t, pop, 16, 900, 19)

	// Residual per-call allocations (not regressions, pinned as-is):
	// VgGiraffe — GBWT extension state internals; GraphAligner — subgraph
	// cache fills; VgMap — Extract+Acyclify build a fresh subgraph per
	// chain (the GSSW DP matrices themselves are pooled); Minigraph — the
	// search frontier of every graph-distance query chaining makes
	// (graph.ShortestPathLenBounded); its GWFA bridges allocate nothing.
	limits := map[string]float64{
		"VgGiraffe":    15,
		"VgMap":        1200,
		"GraphAligner": 10,
		"Minigraph-lr": 189,
	}
	for _, tool := range tools {
		tool := tool
		t.Run(tool.Name(), func(t *testing.T) {
			want, _, err := tool.MapCtx(context.Background(), reads[0], nil) // warms the pooled scratch
			if err != nil {
				t.Fatal(err)
			}
			one := func() {
				got, _, err := tool.MapCtx(context.Background(), reads[0], nil)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("warm MapCtx = %+v, want %+v", got, want)
				}
			}
			results := make([]Result, len(reads))
			stages := make([]StageTimes, len(reads))
			batch := func() {
				if _, err := tool.MapBatch(context.Background(), reads, results, stages, nil); err != nil {
					t.Fatal(err)
				}
				if results[0] != want {
					t.Fatalf("warm MapBatch read 0 = %+v, want %+v", results[0], want)
				}
			}
			batch()
			// The ceilings are a non-race contract: sync.Pool drops a share of
			// its Puts under the race detector, so scratch does not stay warm
			// there. The warm calls above still run and must map identically.
			if raceEnabled {
				one()
				return
			}
			limit := limits[tool.Name()]
			if avg := testing.AllocsPerRun(10, one); avg > limit {
				t.Errorf("warm MapCtx allocs/op = %.1f, want <= %.0f (per-read scratch regression?)", avg, limit)
			}
			// The batched path must not allocate more per read than the
			// serial path does.
			if avg := testing.AllocsPerRun(5, batch); avg/float64(len(reads)) > limit {
				t.Errorf("warm MapBatch allocs/read = %.1f, want <= %.0f", avg/float64(len(reads)), limit)
			}
		})
	}
}
