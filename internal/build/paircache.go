package build

import (
	"container/list"
	"context"
	"sync"

	"pangenomicsbench/internal/perf"
)

// matchKey identifies one canonical pair-match computation: the two
// assembly names in lexicographic order plus the (w,k)-minimizer scheme.
type matchKey struct {
	a, b string
	k, w int
}

// cacheEntry is one pair result. It is pending until ready closes; from
// then on blocks, stats and err never change.
type cacheEntry struct {
	key    matchKey
	ready  chan struct{}
	err    error
	blocks []MatchBlock
	stats  PairStats
	cost   int
	elem   *list.Element // non-nil while resident in the LRU
}

// matchBlockCost approximates the bytes one MatchBlock holds (5 ints).
const matchBlockCost = 40

// PairCache is a size-bounded LRU of canonical pair-match results with
// per-pair single-flight: concurrent Gets of one uncomputed pair share one
// compute. It has no pins. Cached blocks are never mutated, so a reader
// keeps its slice valid after the entry is evicted. A pending entry lives
// only in the map, not in the LRU, so it cannot be evicted, and resident
// bytes never exceed the capacity. All methods are safe for concurrent use.
type PairCache struct {
	mu        sync.Mutex
	capacity  int
	size      int
	entries   map[matchKey]*cacheEntry
	lru       *list.List // front = most recent; ready entries only
	hits      int64
	misses    int64
	evictions int64

	metrics *perf.Metrics
	evicted string
}

// PairCacheStats is a PairCache's lifetime counters and occupancy.
type PairCacheStats struct {
	Hits, Misses, Evictions int64
	Entries, Bytes          int
}

// NewPairCache returns an empty cache holding at most capacity bytes of
// results. Each eviction adds 1 to the series named evicted in metrics; a
// nil metrics set records nothing.
func NewPairCache(capacity int, metrics *perf.Metrics, evicted string) *PairCache {
	return &PairCache{
		capacity: capacity,
		entries:  map[matchKey]*cacheEntry{},
		lru:      list.New(),
		metrics:  metrics,
		evicted:  evicted,
	}
}

// Get returns the blocks of pair (a, b) under the (k, w) scheme, running
// compute on a miss. a and b must be in canonical order (a < b), and the
// blocks are in that orientation; callers must not mutate them. hit reports
// that the result was resident or being computed by another Get. A Get
// that waits on another's compute returns ctx.Err() if ctx ends first; if
// that compute fails, the waiter retries as the new owner. Hits and misses
// count only Gets that return a result.
func (c *PairCache) Get(ctx context.Context, a, b string, k, w int, compute func() ([]MatchBlock, PairStats, error)) (blocks []MatchBlock, stats PairStats, hit bool, err error) {
	key := matchKey{a: a, b: b, k: k, w: w}
	for {
		c.mu.Lock()
		e := c.entries[key]
		if e == nil {
			e = &cacheEntry{key: key, ready: make(chan struct{})}
			c.entries[key] = e
			c.mu.Unlock()
			return c.fill(e, compute)
		}
		c.mu.Unlock()

		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, PairStats{}, false, ctx.Err()
		}
		if e.err != nil {
			continue // the owner failed and removed the entry
		}
		c.mu.Lock()
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		return e.blocks, e.stats, true, nil
	}
}

// fill runs compute for the pending entry e this Get owns and publishes the
// result, or removes e on failure so waiters retry.
func (c *PairCache) fill(e *cacheEntry, compute func() ([]MatchBlock, PairStats, error)) ([]MatchBlock, PairStats, bool, error) {
	blocks, stats, err := compute()
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(e.ready)
	if err != nil {
		e.err = err
		delete(c.entries, e.key)
		return nil, PairStats{}, false, err
	}
	c.misses++
	e.blocks, e.stats = blocks, stats
	e.cost = matchBlockCost*len(blocks) + 64
	e.elem = c.lru.PushFront(e)
	c.size += e.cost
	for c.size > c.capacity && c.lru.Len() > 0 {
		back := c.lru.Back()
		old := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		old.elem = nil
		delete(c.entries, old.key)
		c.size -= old.cost
		c.evictions++
		c.metrics.Add(c.evicted, 1)
	}
	return blocks, stats, false, nil
}

// Stats returns the lifetime hit, miss and eviction counts and the resident
// entries and bytes.
func (c *PairCache) Stats() PairCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PairCacheStats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: len(c.entries), Bytes: c.size,
	}
}
