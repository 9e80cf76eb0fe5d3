package fleet

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// Worker executes pair-match RPCs for the shard of the canonical pair-hash
// space the coordinator routes to it. It holds the pushed assembly catalog
// and a build.PairCache of its shard's pair results, so overlapping cohorts
// hit across builds and across processes. All methods are safe for
// concurrent use.
type Worker struct {
	name  string
	cache *build.PairCache

	// obsMu guards the observability hooks, which SetObs may swap while
	// Match RPCs are in flight (the daemon wires them after construction).
	obsMu   sync.RWMutex
	metrics *perf.Metrics
	tracer  *obs.Tracer

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

// SetObs wires the worker's observability hooks: metrics receives task,
// cache and latency series (the /metrics scrape federation reads), tracer
// records one linked span per Match RPC (shipped back on MatchResponse when
// the request carried a trace context). Both nil-safe; safe to call while
// serving.
func (w *Worker) SetObs(m *perf.Metrics, tr *obs.Tracer) {
	w.obsMu.Lock()
	w.metrics = m
	w.tracer = tr
	w.obsMu.Unlock()
}

// MetricsSnapshot reports the worker's metric set — the payload of the
// transport's GET /metrics, federated by the coordinator under a node
// label. An unwired worker reports an empty (non-nil-map) snapshot.
func (w *Worker) MetricsSnapshot() perf.MetricsSnapshot {
	w.obsMu.RLock()
	m := w.metrics
	w.obsMu.RUnlock()
	return m.Snapshot()
}

// Match resolves one canonical pair through the pair cache, computing it
// with build.PairMatches on a miss. Concurrent requests for the same
// uncomputed pair share one execution. The returned blocks are in
// canonical orientation (SeqA = 0 names req.A, SeqB = 1 names req.B) and
// must not be mutated by the caller.
//
// With tracing wired (SetObs), every call runs under a span linked to the
// caller's trace context — an in-process span for loopback transports, the
// extracted traceparent for HTTP — and the completed subtree rides back on
// MatchResponse.Trace.
func (w *Worker) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	w.obsMu.RLock()
	m, tr := w.metrics, w.tracer
	w.obsMu.RUnlock()

	t0 := time.Now()
	sp := tr.StartLinked("fleet.worker.match", obs.ParentFromContext(ctx))
	sp.Set("node", w.name)
	sp.Set("pair", req.A+"|"+req.B)
	resp, err := w.match(ctx, req, sp)
	m.Observe("fleet.worker.match", time.Since(t0))
	m.Add("fleet.worker.tasks", 1)
	if err != nil {
		m.Add("fleet.worker.errors", 1)
		sp.Error(err)
		sp.End()
		return nil, err
	}
	if resp.CacheHit {
		m.Add("fleet.worker.cache_hits", 1)
	} else {
		m.Add("fleet.worker.cache_misses", 1)
	}
	sp.Set("cache_hit", strconv.FormatBool(resp.CacheHit))
	sp.SetInt("blocks", int64(len(resp.Blocks)))
	sp.End()
	if sp != nil {
		d := sp.Data()
		resp.Trace = &d
	}
	return resp, nil
}

// match is the pair-cache path behind Match. The catalog is read only on a
// miss, so a cached pair is served without it; sp (possibly nil) receives
// the kernel stage breakdown on a compute.
func (w *Worker) match(ctx context.Context, req MatchRequest, sp *obs.Span) (*MatchResponse, error) {
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
			return nil, build.PairStats{}, fmt.Errorf("%w: %q/%q (catalog has %d assemblies)", ErrUnknownAssembly, req.A, req.B, n)
		}
		cs := sp.Child("compute")
		tc := time.Now()
		blocks, stats, err := build.PairMatches(0, seqA, 1, seqB, req.K, req.W, nil)
		if err == nil {
			// Kernel stage attribution: minimize and WFA refine are
			// measured inside PairMatches; anchoring/emission is the rest.
			cs.Stage("minimize", tc, stats.MinimizeTime)
			cs.Stage("wfa", tc.Add(stats.MinimizeTime), stats.WFATime)
			if rest := time.Since(tc) - stats.MinimizeTime - stats.WFATime; rest > 0 {
				cs.Stage("anchor", tc.Add(stats.MinimizeTime+stats.WFATime), rest)
			}
		}
		cs.Error(err)
		cs.End()
		return blocks, stats, err
	})
	if err != nil {
		return nil, err
	}
	return &MatchResponse{Blocks: blocks, Stats: stats, CacheHit: hit}, nil
}

// Ping reports the worker's identity, counters and cache occupancy — the
// heartbeat payload the coordinator aggregates. Tasks counts the pairs
// served, from the cache or computed.
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
