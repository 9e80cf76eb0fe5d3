package fleet

import (
	"context"
	"fmt"
	"sync"

	"pangenomicsbench/internal/build"
)

// Worker executes pair-match calls for the shard of the canonical pair-hash
// space the coordinator routes to it. It holds the pushed assembly catalog
// and a build.PairCache of its shard's pair results, so overlapping cohorts
// hit across builds. All methods are safe for concurrent use.
type Worker struct {
	name  string
	cache *build.PairCache

	mu      sync.Mutex
	catalog map[string][]byte
	version int // last ConfigPush.Version applied
	owned   KeyRange
}

// NewWorker returns a named worker with an empty catalog and the given
// pair-cache capacity in bytes (≤0 uses 32 MiB).
func NewWorker(name string, cacheBytes int) *Worker {
	if cacheBytes <= 0 {
		cacheBytes = 32 << 20
	}
	return &Worker{
		name:    name,
		cache:   build.NewPairCache(cacheBytes, nil, ""),
		catalog: map[string][]byte{},
	}
}

// Configure applies one coordinator config push: the assembly catalog is
// replaced wholesale (pushes are cumulative snapshots, not deltas), and the
// owned range is updated. Stale pushes (a version below the last applied
// one) are ignored, so a delayed re-push cannot roll the catalog back.
func (w *Worker) Configure(push ConfigPush) error {
	if len(push.Names) != len(push.Seqs) {
		return fmt.Errorf("fleet: config push has %d names but %d seqs", len(push.Names), len(push.Seqs))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if push.Version < w.version {
		return nil
	}
	cat := make(map[string][]byte, len(push.Names))
	for i, n := range push.Names {
		if n == "" || len(push.Seqs[i]) == 0 {
			return fmt.Errorf("fleet: config push entry %d is empty", i)
		}
		cat[n] = push.Seqs[i]
	}
	w.catalog = cat
	w.version = push.Version
	w.owned = push.Range
	return nil
}

// Match resolves one canonical pair through the pair cache, computing it
// with build.PairMatches on a miss. Concurrent requests for the same
// uncomputed pair share one execution. The catalog is read only on a miss,
// so a cached pair is served without it. The returned blocks are in
// canonical orientation (SeqA = 0 names req.A, SeqB = 1 names req.B) and
// must not be mutated by the caller.
func (w *Worker) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	if req.A >= req.B {
		return nil, fmt.Errorf("fleet: non-canonical pair %q, %q (want A < B)", req.A, req.B)
	}
	blocks, stats, hit, err := w.cache.Get(ctx, req.A, req.B, req.K, req.W, func() ([]build.MatchBlock, build.PairStats, error) {
		w.mu.Lock()
		seqA, okA := w.catalog[req.A]
		seqB, okB := w.catalog[req.B]
		n := len(w.catalog)
		w.mu.Unlock()
		if !okA || !okB {
			return nil, build.PairStats{}, fmt.Errorf("fleet: unknown assembly %q/%q (catalog has %d assemblies)", req.A, req.B, n)
		}
		return build.PairMatches(0, seqA, 1, seqB, req.K, req.W, nil)
	})
	if err != nil {
		return nil, err
	}
	return &MatchResponse{Blocks: blocks, Stats: stats, CacheHit: hit}, nil
}

// Ping reports the worker's identity, counters and cache occupancy — the
// heartbeat payload. Tasks counts the pairs served, from the cache or
// computed.
func (w *Worker) Ping() PingReply {
	st := w.cache.Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	return PingReply{
		Name:          w.name,
		Assemblies:    len(w.catalog),
		ConfigVersion: w.version,
		Range:         w.owned,
		Tasks:         st.Hits + st.Misses,
		CacheHits:     st.Hits,
		CacheMisses:   st.Misses,
		CacheEntries:  st.Entries,
		CacheBytes:    st.Bytes,
	}
}
