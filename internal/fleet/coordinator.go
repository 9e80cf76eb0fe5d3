package fleet

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// Config parameterizes a Coordinator.
type Config struct {
	// HeartbeatEvery spaces liveness pings; ≤0 uses 500ms. A node unheard
	// for deadAfterBeats of them is marked dead and its tasks are routed
	// elsewhere.
	HeartbeatEvery time.Duration
	// Metrics receives fleet counters and gauges (nodes live, tasks,
	// reassignments, remote cache hits); nil disables recording.
	Metrics *perf.Metrics
}

// node is one registry entry: a named worker behind a transport, with the
// coordinator-side liveness and config-push state.
type node struct {
	name string
	t    Transport

	mu       sync.Mutex
	live     bool
	lastSeen time.Time
	pushed   int // catalog version last successfully pushed

	// pushMu serializes config pushes so concurrent dispatches don't each
	// re-send the full catalog before the first push lands.
	pushMu sync.Mutex
}

func (n *node) isLive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.live
}

// Coordinator shards canonical pair-match tasks across a registry of
// worker nodes by pair hash, keeps the registry honest with heartbeats,
// pushes catalog/config to nodes as they join or fall behind, and
// re-issues tasks whose worker dies to the next live node. Merging is
// always in canonical pair order, so fleet results are byte-identical to
// single-process ones.
type Coordinator struct {
	cfg     Config
	metrics *perf.Metrics

	mu      sync.Mutex
	nodes   []*node // sorted by name; index = shard index
	names   []string
	seqs    [][]byte
	byName  map[string]int // catalog name → index
	version int            // catalog version, bumped on registration

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator returns a running coordinator (its heartbeat loop starts
// immediately); Close stops it.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 500 * time.Millisecond
	}
	c := &Coordinator{
		cfg:     cfg,
		metrics: cfg.Metrics,
		byName:  map[string]int{},
		stop:    make(chan struct{}),
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
	return c
}

// Close stops the heartbeat loop and closes every node transport.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	c.mu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		_ = n.t.Close()
	}
}

// AddNode registers a worker under a unique name and pushes the current
// catalog to it. The node joins live; a failed initial push marks it dead
// (heartbeats will revive it when it answers). Node names order the shard
// ring, so a fixed name set yields a fixed task routing.
func (c *Coordinator) AddNode(name string, t Transport) error {
	if name == "" {
		return fmt.Errorf("fleet: empty node name")
	}
	n := &node{name: name, t: t, live: true, lastSeen: time.Now()}
	c.mu.Lock()
	for _, ex := range c.nodes {
		if ex.name == name {
			c.mu.Unlock()
			return fmt.Errorf("fleet: node %q already registered", name)
		}
	}
	c.nodes = append(c.nodes, n)
	sort.Slice(c.nodes, func(i, j int) bool { return c.nodes[i].name < c.nodes[j].name })
	c.mu.Unlock()
	c.updateNodeGauges()
	c.updateShardGauges()
	if err := c.pushConfig(context.Background(), n); err != nil {
		c.markDead(n)
		return nil // registered; heartbeats will retry the push on revival
	}
	return nil
}

// RegisterAssembly adds one named assembly to the coordinator catalog.
// The new catalog version is pushed to each node lazily, before the next
// task that needs it (and eagerly on heartbeat revival).
func (c *Coordinator) RegisterAssembly(name string, seq []byte) error {
	if name == "" {
		return fmt.Errorf("fleet: empty assembly name")
	}
	if len(seq) == 0 {
		return fmt.Errorf("fleet: assembly %q has an empty sequence", name)
	}
	c.mu.Lock()
	if _, dup := c.byName[name]; dup {
		c.mu.Unlock()
		return fmt.Errorf("fleet: assembly %q already registered", name)
	}
	c.byName[name] = len(c.names)
	c.names = append(c.names, name)
	c.seqs = append(c.seqs, seq)
	c.version++
	c.mu.Unlock()
	c.updateShardGauges()
	return nil
}

// RegisterAssemblies registers parallel name/sequence slices.
func (c *Coordinator) RegisterAssemblies(names []string, seqs [][]byte) error {
	if len(names) != len(seqs) {
		return fmt.Errorf("fleet: %d names but %d sequences", len(names), len(seqs))
	}
	for i := range names {
		if err := c.RegisterAssembly(names[i], seqs[i]); err != nil {
			return err
		}
	}
	return nil
}

// snapshotNodes returns the current ring (ordered) and its size.
func (c *Coordinator) snapshotNodes() []*node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*node(nil), c.nodes...)
}

// configPush builds the current catalog push for shard idx of n.
func (c *Coordinator) configPush(idx, n int) ConfigPush {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ConfigPush{
		Names:   append([]string(nil), c.names...),
		Seqs:    append([][]byte(nil), c.seqs...),
		Range:   RangeOf(idx, n),
		Version: c.version,
	}
}

// pushConfig sends the catalog to nd if its pushed version is behind.
func (c *Coordinator) pushConfig(ctx context.Context, nd *node) error {
	nd.pushMu.Lock()
	defer nd.pushMu.Unlock()
	c.mu.Lock()
	version := c.version
	idx, total := 0, len(c.nodes)
	for i, n := range c.nodes {
		if n == nd {
			idx = i
			break
		}
	}
	c.mu.Unlock()
	nd.mu.Lock()
	behind := nd.pushed < version
	nd.mu.Unlock()
	if !behind {
		return nil
	}
	push := c.configPush(idx, total)
	if err := nd.t.Configure(ctx, push); err != nil {
		return err
	}
	c.metrics.Add("fleet.push", 1)
	nd.mu.Lock()
	if push.Version > nd.pushed {
		nd.pushed = push.Version
	}
	nd.mu.Unlock()
	return nil
}

// markDead flips a node dead and refreshes the liveness gauges.
func (c *Coordinator) markDead(nd *node) {
	nd.mu.Lock()
	was := nd.live
	nd.live = false
	nd.mu.Unlock()
	if was {
		c.metrics.Add("fleet.deaths", 1)
	}
	c.updateNodeGauges()
}

// markLive revives a node (heartbeat or task answered) and refreshes
// gauges.
func (c *Coordinator) markLive(nd *node) {
	nd.mu.Lock()
	nd.live = true
	nd.lastSeen = time.Now()
	nd.mu.Unlock()
	c.updateNodeGauges()
}

// updateShardGauges recomputes the derived shard-balance view from the
// current catalog and ring: fleet.shard_pairs{node=...} counts the
// unordered catalog pairs each node's key range owns, and
// fleet.shard_imbalance_milli is the max/mean load ratio ×1000 (1000 =
// perfectly balanced). This is what makes hash-routing skew — e.g. the
// bench corpus's 22/6 split across 2 shards (EXPERIMENTS.md fig5-fleet) —
// directly observable on /metrics.
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

func (c *Coordinator) updateNodeGauges() {
	live := 0
	c.mu.Lock()
	total := len(c.nodes)
	for _, n := range c.nodes {
		if n.isLive() {
			live++
		}
	}
	c.mu.Unlock()
	c.metrics.GaugeSet("fleet.nodes_total", int64(total))
	c.metrics.GaugeSet("fleet.nodes_live", int64(live))
}

// deadAfterBeats is how many heartbeat periods a node may go unheard before
// it is marked dead.
const deadAfterBeats = 3

// heartbeatLoop pings every node each HeartbeatEvery: an answering node is
// (re)marked live; a node silent for deadAfterBeats periods is marked dead
// so dispatch stops routing to it.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for _, nd := range c.snapshotNodes() {
			ctx, cancel := context.WithTimeout(context.Background(), c.cfg.HeartbeatEvery)
			_, err := nd.t.Ping(ctx)
			cancel()
			if err == nil {
				wasDead := !nd.isLive()
				c.markLive(nd)
				if wasDead {
					// Revival: make the node useful again before tasks hit it.
					_ = c.pushConfig(context.Background(), nd)
				}
				continue
			}
			nd.mu.Lock()
			silent := time.Since(nd.lastSeen)
			live := nd.live
			nd.mu.Unlock()
			if live && silent > deadAfterBeats*c.cfg.HeartbeatEvery {
				c.markDead(nd)
			}
		}
	}
}

// Match resolves one unordered pair through the fleet: the pair's hash
// picks its owner shard, dead owners fall through to the next live node on
// the ring (counted as a reassignment), and a failed call marks the node
// dead and re-issues the task. The returned blocks are in canonical
// orientation (SeqA = 0 names the lexicographically smaller assembly).
func (c *Coordinator) Match(ctx context.Context, a, b string, k, w int) ([]build.MatchBlock, build.PairStats, bool, error) {
	if a > b {
		a, b = b, a
	}
	nodes := c.snapshotNodes()
	n := len(nodes)
	if n == 0 {
		return nil, build.PairStats{}, false, ErrNoLiveNodes
	}
	req := MatchRequest{A: a, B: b, K: k, W: w}
	owner := OwnerOf(PairHash(a, b), n)
	var lastErr error
	for off := 0; off < n; off++ {
		nd := nodes[(owner+off)%n]
		if !nd.isLive() {
			continue
		}
		if err := c.pushConfig(ctx, nd); err != nil {
			lastErr = err
			c.markDead(nd)
			continue
		}
		// Each dispatch attempt gets a child span of whatever build trace
		// rides ctx.
		dctx, dsp := obs.StartSpan(ctx, "fleet.dispatch")
		dsp.Set("node", nd.name)
		dsp.Set("pair", a+"|"+b)
		if off > 0 {
			dsp.SetInt("ring_offset", int64(off))
		}
		resp, err := nd.t.Match(dctx, req)
		if err != nil {
			dsp.Error(err)
			dsp.End()
			if ctx.Err() != nil {
				return nil, build.PairStats{}, false, ctx.Err()
			}
			lastErr = err
			c.markDead(nd)
			continue
		}
		dsp.End()
		c.markLive(nd)
		c.metrics.Add("fleet.tasks", 1)
		c.metrics.Add(obs.WithLabel("fleet.dispatched", "node", nd.name), 1)
		if off > 0 {
			c.metrics.Add("fleet.reassigned", 1)
		}
		if resp.CacheHit {
			c.metrics.Add("fleet.remote_hits", 1)
		} else {
			c.metrics.Add("fleet.remote_misses", 1)
		}
		return resp.Blocks, resp.Stats, resp.CacheHit, nil
	}
	if lastErr != nil {
		return nil, build.PairStats{}, false, fmt.Errorf("%w (last: %v)", ErrNoLiveNodes, lastErr)
	}
	return nil, build.PairStats{}, false, ErrNoLiveNodes
}

// AllPairMatches runs every unordered pair of the named cohort through the
// fleet with build.CohortMatches, 4 dispatches in flight per node — the
// distributed counterpart of build.AllPairMatches, byte-identical to it for
// the same inputs. Cohort assemblies must already be registered. The
// returned hit count is the number of pairs served from worker caches.
func (c *Coordinator) AllPairMatches(ctx context.Context, cohort []string, k, w int) ([]build.MatchBlock, build.PairStats, int, error) {
	seqs := make([][]byte, len(cohort))
	c.mu.Lock()
	for i, name := range cohort {
		idx, ok := c.byName[name]
		if !ok {
			c.mu.Unlock()
			return nil, build.PairStats{}, 0, fmt.Errorf("fleet: assembly %q not registered", name)
		}
		seqs[i] = c.seqs[idx]
	}
	c.mu.Unlock()
	return build.CohortMatches(ctx, cohort, seqs, 4*len(c.snapshotNodes()),
		func(ctx context.Context, a, b string, _, _ []byte) ([]build.MatchBlock, build.PairStats, bool, error) {
			return c.Match(ctx, a, b, k, w)
		})
}
