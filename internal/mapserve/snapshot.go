// Package mapserve is the read-mapping query service of the reproduction —
// the steady-state serving tier the ROADMAP's production north star implies.
// Where internal/serve builds graphs on demand, mapserve treats built graphs
// as immutable artifacts queried at high QPS (the GAP-style build/query
// split): a Snapshot bundles one graph with the precomputed indexes of one
// mapping tool, a reference-counted Registry hot-swaps snapshots atomically
// so a finished cohort rebuild publishes without blocking in-flight queries,
// and an executor hands incoming read queries one at a time to a bounded
// worker pool with deadline-aware admission control.
package mapserve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
)

// ToolKind selects the mapping tool of a snapshot.
type ToolKind string

// Supported mapping tools. Minigraph's chromosome mode is excluded: it maps
// whole assemblies, not read queries.
const (
	ToolGiraffe      ToolKind = "giraffe"
	ToolVgMap        ToolKind = "vgmap"
	ToolGraphAligner ToolKind = "graphaligner"
	ToolMinigraphLR  ToolKind = "minigraph-lr"
)

// ToolConfig parameterizes the mapping tool built into a snapshot.
type ToolConfig struct {
	Kind ToolKind
	// K, W select the minimizer scheme of the tool's graph index.
	K, W int
}

// DefaultToolConfig mirrors the suite's mapping defaults.
func DefaultToolConfig(kind ToolKind) ToolConfig {
	return ToolConfig{Kind: kind, K: 15, W: 10}
}

// Snapshot is one immutable graph + index bundle: the unit of publication.
// Its graph and the tool's precomputed indexes (minimizer index, GBWT,
// distance index) are built once and only read afterwards, so any number of
// queries may map against it concurrently. Lifetime is reference-counted by
// the Registry; user code never constructs the refcount state directly.
type Snapshot struct {
	// ID labels the snapshot (e.g. a cohort fingerprint); Generation is the
	// registry's monotonic publication counter, 0 until published.
	ID         string
	Generation uint64

	g    *graph.Graph
	tool pipeline.ContextTool
	cfg  ToolConfig

	refs   int64
	retire func(*Snapshot)
}

// NewSnapshot builds a snapshot over g: the tool and every index it needs
// are constructed here, up front, so queries never pay index-build cost.
func NewSnapshot(id string, g *graph.Graph, cfg ToolConfig) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("mapserve: nil graph")
	}
	if cfg.K <= 0 || cfg.W <= 0 {
		return nil, fmt.Errorf("mapserve: invalid minimizer scheme k=%d w=%d", cfg.K, cfg.W)
	}
	var tool pipeline.ContextTool
	var err error
	switch cfg.Kind {
	case ToolGiraffe:
		tool, err = pipeline.NewVgGiraffe(g, cfg.K, cfg.W)
	case ToolVgMap:
		tool, err = pipeline.NewVgMap(g, cfg.K, cfg.W)
	case ToolGraphAligner:
		tool, err = pipeline.NewGraphAligner(g, cfg.K, cfg.W)
	case ToolMinigraphLR:
		tool, err = pipeline.NewMinigraph(g, cfg.K, cfg.W, false)
	default:
		return nil, fmt.Errorf("mapserve: unknown tool %q", cfg.Kind)
	}
	if err != nil {
		return nil, fmt.Errorf("mapserve: snapshot %q: %w", id, err)
	}
	return &Snapshot{ID: id, g: g, tool: tool, cfg: cfg}, nil
}

// NewSnapshotWithTool wraps an already-built (or specially tuned) mapping
// tool as a snapshot. The caller promises the tool only reads g and its
// indexes during MapCtx, so concurrent queries are safe.
func NewSnapshotWithTool(id string, g *graph.Graph, tool pipeline.ContextTool) (*Snapshot, error) {
	if g == nil {
		return nil, fmt.Errorf("mapserve: nil graph")
	}
	if tool == nil {
		return nil, fmt.Errorf("mapserve: nil tool")
	}
	return &Snapshot{ID: id, g: g, tool: tool}, nil
}

// SnapshotFromBuild wraps a finished construction result (an internal/serve
// cohort rebuild, or a direct build.PGGB / build.MinigraphCactus run) as a
// publishable snapshot — the build-then-serve handoff.
func SnapshotFromBuild(id string, res *build.Result, cfg ToolConfig) (*Snapshot, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("mapserve: build result has no graph")
	}
	return NewSnapshot(id, res.Graph, cfg)
}

// Graph returns the snapshot's (read-only) graph.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// Config returns the snapshot's tool configuration.
func (s *Snapshot) Config() ToolConfig { return s.cfg }

// Map maps one read against the snapshot, honoring ctx cancellation inside
// the tool's mapping loops.
func (s *Snapshot) Map(ctx context.Context, read []byte) (pipeline.Result, pipeline.StageTimes, error) {
	return s.tool.MapCtx(ctx, read, nil)
}

// MapWithProbe is Map with a kernel perf.Probe attached (nil records
// nothing) — the hook the traced executor uses to carry dynamic
// instruction counts on map spans.
func (s *Snapshot) MapWithProbe(ctx context.Context, read []byte, probe *perf.Probe) (pipeline.Result, pipeline.StageTimes, error) {
	return s.tool.MapCtx(ctx, read, probe)
}

// Release drops one reference acquired from a Registry. When the last
// reference of an unpublished (swapped-out) snapshot drops, the registry's
// retire hook fires — exactly once, and never while queries hold the
// snapshot.
func (s *Snapshot) Release() {
	if n := atomic.AddInt64(&s.refs, -1); n == 0 {
		if s.retire != nil {
			s.retire(s)
		}
	} else if n < 0 {
		panic("mapserve: snapshot over-released")
	}
}

// Registry holds the current snapshot and hot-swaps it atomically. Acquire
// and Publish serialize on a mutex; Release is lock-free. The registry
// itself holds one reference on the current snapshot, so a snapshot's
// refcount can only reach zero after it has been swapped out — queries
// racing a swap therefore always map against a coherent, fully-built
// snapshot, and retirement never preempts an in-flight query.
type Registry struct {
	mu      sync.Mutex
	current *Snapshot
	gen     uint64
	// live tracks every published snapshot until it retires, so Stats can
	// report swapped-out generations still pinned by in-flight queries.
	live map[uint64]*Snapshot

	// OnRetire, when set before the first Publish, observes each snapshot
	// after its last reference drops (metrics, index teardown logging).
	OnRetire func(*Snapshot)
}

// Publish installs s as the current snapshot, stamps its generation, and
// returns the generation. The previous snapshot (if any) is released; it
// retires once its last in-flight query releases it. A snapshot must not be
// published twice.
func (r *Registry) Publish(s *Snapshot) (uint64, error) {
	if s == nil {
		return 0, fmt.Errorf("mapserve: publish nil snapshot")
	}
	r.mu.Lock()
	if s.Generation != 0 || atomic.LoadInt64(&s.refs) != 0 {
		r.mu.Unlock()
		return 0, fmt.Errorf("mapserve: snapshot %q already published", s.ID)
	}
	r.gen++
	s.Generation = r.gen
	s.retire = r.retireSnapshot
	atomic.StoreInt64(&s.refs, 1) // the registry's own reference
	if r.live == nil {
		r.live = map[uint64]*Snapshot{}
	}
	r.live[s.Generation] = s
	prev := r.current
	r.current = s
	r.mu.Unlock()
	if prev != nil {
		prev.Release()
	}
	return s.Generation, nil
}

// Acquire returns the current snapshot with one reference held, or nil if
// nothing has been published. The caller must Release it when done.
func (r *Registry) Acquire() *Snapshot {
	r.mu.Lock()
	s := r.current
	if s != nil {
		atomic.AddInt64(&s.refs, 1)
	}
	r.mu.Unlock()
	return s
}

// Generation returns the current publication counter (0 before the first
// Publish).
func (r *Registry) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// retireSnapshot fires when a published snapshot's last reference drops: it
// leaves the live set, then the user's OnRetire hook (if any) observes it.
func (r *Registry) retireSnapshot(s *Snapshot) {
	r.mu.Lock()
	delete(r.live, s.Generation)
	cb := r.OnRetire
	r.mu.Unlock()
	if cb != nil {
		cb(s)
	}
}

// Stats reports every still-referenced snapshot generation — the /snapshots
// view of the registry: refcounts, in-flight queries (refs minus the
// registry's own reference on the current snapshot), and which generation
// is current. Sorted by generation.
func (r *Registry) Stats() []obs.SnapshotInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	infos := make([]obs.SnapshotInfo, 0, len(r.live))
	for _, s := range r.live {
		refs := atomic.LoadInt64(&s.refs)
		info := obs.SnapshotInfo{
			ID:         s.ID,
			Generation: s.Generation,
			Refs:       refs,
			InFlight:   refs,
			Current:    s == r.current,
		}
		if info.Current {
			info.InFlight-- // the registry's own reference is not a query
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Generation < infos[j].Generation })
	return infos
}
