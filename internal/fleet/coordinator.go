package fleet

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Metrics receives fleet counters (tasks, remote cache hits) and the
	// shard-balance gauges; nil disables recording.
	Metrics *perf.Metrics
}

// node is one registered worker under its name.
type node struct {
	name string
	w    *Worker
}

// Coordinator shards canonical pair-match tasks across a registry of
// workers by pair hash. It runs nothing in the background.
type Coordinator struct {
	metrics *perf.Metrics

	mu    sync.Mutex
	nodes []node   // sorted by name; index = shard index
	names []string // registered assembly names, for the shard gauges
}

// NewCoordinator returns a coordinator with no nodes and no assemblies.
func NewCoordinator(cfg Config) *Coordinator {
	return &Coordinator{metrics: cfg.Metrics}
}

// Close is a no-op: the coordinator holds no goroutines or connections.
func (c *Coordinator) Close() {}

// AddNode registers a worker under a unique name. Node names order the
// shard ring, so a fixed name set yields a fixed task routing.
func (c *Coordinator) AddNode(name string, w *Worker) error {
	if name == "" {
		return fmt.Errorf("fleet: empty node name")
	}
	c.mu.Lock()
	for _, ex := range c.nodes {
		if ex.name == name {
			c.mu.Unlock()
			return fmt.Errorf("fleet: node %q already registered", name)
		}
	}
	c.nodes = append(c.nodes, node{name: name, w: w})
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].name < c.nodes[j].name })
	c.mu.Unlock()
	c.updateShardGauges()
	return nil
}

// RegisterAssembly adds one assembly name to the catalog the shard gauges
// count pairs over. Sequences are not kept: each Match carries its pair's.
func (c *Coordinator) RegisterAssembly(name string) error {
	if name == "" {
		return fmt.Errorf("fleet: empty assembly name")
	}
	c.mu.Lock()
	if slices.Contains(c.names, name) {
		c.mu.Unlock()
		return fmt.Errorf("fleet: assembly %q already registered", name)
	}
	c.names = append(c.names, name)
	c.mu.Unlock()
	c.updateShardGauges()
	return nil
}

// updateShardGauges recomputes the derived shard-balance view from the
// current catalog and ring: fleet.shard_pairs{node=...} counts the
// unordered catalog pairs each node's key range owns, and
// fleet.shard_imbalance_milli is the max/mean load ratio ×1000 (1000 =
// perfectly balanced), which makes hash-routing skew directly observable
// on /metrics.
func (c *Coordinator) updateShardGauges() {
	if c.metrics == nil {
		return
	}
	c.mu.Lock()
	names := append([]string(nil), c.names...)
	nodeNames := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		nodeNames[i] = nd.name
	}
	c.mu.Unlock()
	n := len(nodeNames)
	if n == 0 {
		return
	}
	perShard := make([]int64, n)
	var total int64
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			perShard[OwnerOf(PairHash(names[i], names[j]), n)]++
			total++
		}
	}
	var max int64
	for i, v := range perShard {
		c.metrics.GaugeSet(obs.WithLabel("fleet.shard_pairs", "node", nodeNames[i]), v)
		if v > max {
			max = v
		}
	}
	imbalance := int64(1000)
	if total > 0 {
		mean := float64(total) / float64(n)
		imbalance = int64(float64(max) / mean * 1000)
	}
	c.metrics.GaugeSet("fleet.shard_imbalance_milli", imbalance)
}

// Match resolves one unordered pair on the worker whose shard owns the
// pair's hash, and returns that worker's error as it is: the pair, the
// sequences and the code are the same on every worker, so no other worker
// would answer differently. The returned blocks are in canonical
// orientation (SeqA = 0 names the lexicographically smaller assembly).
// Its signature fits build.CohortMatches once k and w are bound.
func (c *Coordinator) Match(ctx context.Context, a, b string, seqA, seqB []byte, k, w int) ([]build.MatchBlock, build.PairStats, bool, error) {
	if a > b {
		a, b, seqA, seqB = b, a, seqB, seqA
	}
	c.mu.Lock()
	n := len(c.nodes)
	var nd node
	if n > 0 {
		nd = c.nodes[OwnerOf(PairHash(a, b), n)]
	}
	c.mu.Unlock()
	if n == 0 {
		return nil, build.PairStats{}, false, ErrNoLiveNodes
	}
	// Each dispatch is a child span of whatever build trace rides ctx.
	dctx, dsp := obs.StartSpan(ctx, "fleet.dispatch")
	dsp.Set("node", nd.name)
	dsp.Set("pair", a+"|"+b)
	blocks, stats, hit, err := nd.w.match(dctx, a, b, seqA, seqB, k, w)
	if err != nil {
		dsp.Error(err)
		dsp.End()
		return nil, build.PairStats{}, false, err
	}
	dsp.End()
	c.metrics.Add("fleet.tasks", 1)
	c.metrics.Add(obs.WithLabel("fleet.dispatched", "node", nd.name), 1)
	if hit {
		c.metrics.Add("fleet.remote_hits", 1)
	} else {
		c.metrics.Add("fleet.remote_misses", 1)
	}
	return blocks, stats, hit, nil
}
