package fleet

import (
	"context"

	"pangenomicsbench/internal/build"
)

// Worker is one shard's pair cache: the coordinator routes every pair whose
// hash the worker's shard owns to it, so overlapping cohorts hit across
// builds. It is safe for concurrent use.
type Worker struct {
	cache *build.PairCache
}

// NewWorker returns a worker with an empty pair cache of cacheBytes bytes
// (≤0 uses 32 MiB). The node's name is the one AddNode registers it under;
// name here is unused.
func NewWorker(name string, cacheBytes int) *Worker {
	if cacheBytes <= 0 {
		cacheBytes = 32 << 20
	}
	return &Worker{cache: build.NewPairCache(cacheBytes, nil, "")}
}

// NewLocalNode returns w. It panics on a non-zero width: a worker has no
// executor bound, so a caller asking for one would silently lose it.
func NewLocalNode(w *Worker, width int) *Worker {
	if width != 0 {
		panic("fleet: NewLocalNode width must be 0 (workers have no executor bound)")
	}
	return w
}

// match resolves one canonical pair (a < b) through the pair cache,
// computing it with build.PairMatches on a miss, exactly as PairCache.Get
// does. The blocks are in canonical orientation (SeqA = 0 names a) and must
// not be mutated by the caller.
func (w *Worker) match(ctx context.Context, a, b string, seqA, seqB []byte, k, wnd int) ([]build.MatchBlock, build.PairStats, bool, error) {
	return w.cache.Get(ctx, a, b, k, wnd, func() ([]build.MatchBlock, build.PairStats, error) {
		return build.PairMatches(0, seqA, 1, seqB, k, wnd, nil)
	})
}
