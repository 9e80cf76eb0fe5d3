package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/gfa"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// testCatalog simulates a small population and returns its assemblies.
func testCatalog(t testing.TB, refLen, n int) ([]string, [][]byte) {
	t.Helper()
	cfg := gensim.DefaultConfig()
	cfg.RefLen = refLen
	cfg.Haplotypes = n
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names, seqs := pop.AssemblyView()
	return names, seqs
}

// localFleet builds a coordinator over n in-process workers, registered as
// node-0..node-(n-1), with the catalog pushed.
func localFleet(t testing.TB, cfg Config, names []string, seqs [][]byte, n int) (*Coordinator, []*LocalNode) {
	t.Helper()
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	if err := c.RegisterAssemblies(names, seqs); err != nil {
		t.Fatal(err)
	}
	nodes := make([]*LocalNode, n)
	for i := range nodes {
		nodes[i] = NewLocalNode(NewWorker(fmt.Sprintf("node-%d", i), 0), 0)
		if err := c.AddNode(fmt.Sprintf("node-%d", i), nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	return c, nodes
}

const testK, testW = 15, 10

// liveByName reports the registry's liveness verdict for every node.
func liveByName(c *Coordinator) map[string]bool {
	live := map[string]bool{}
	for _, nd := range c.snapshotNodes() {
		live[nd.name] = nd.isLive()
	}
	return live
}

// TestFleetIdenticalToSingleProcess is the fleet acceptance differential:
// a 2-worker fleet's merged all-pair match blocks equal
// build.AllPairMatches exactly, and the graph induced from them is
// byte-identical GFA to a single-process build.PGGB.
func TestFleetIdenticalToSingleProcess(t *testing.T) {
	names, seqs := testCatalog(t, 6000, 6)
	c, _ := localFleet(t, Config{Metrics: perf.NewMetrics()}, names, seqs, 2)

	want, wantStats, err := build.AllPairMatches(context.Background(), seqs, testK, testW, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, _, err := c.AllPairMatches(context.Background(), names, testK, testW)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fleet blocks differ from single-process (got %d, want %d)", len(got), len(want))
	}
	if gotStats.Blocks != wantStats.Blocks || gotStats.MatchedBases != wantStats.MatchedBases {
		t.Fatalf("fleet stats differ: %+v vs %+v", gotStats, wantStats)
	}

	cfg := build.DefaultPGGBConfig()
	cfg.LayoutIterations = 0
	direct, err := build.PGGB(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	viaFleet, err := build.PGGBFromMatches(context.Background(), names, seqs, got, gotStats, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := gfa.Write(&a, direct.Graph); err != nil {
		t.Fatal(err)
	}
	if err := gfa.Write(&b, viaFleet.Graph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fleet-built GFA differs from single-process build.PGGB")
	}
}

// TestFleetShardCacheCrossRequest: a second identical cohort is served
// entirely from worker shard caches, the shard split routed work to both
// nodes, and the fleet.* series the benchmark reads agree with that
// routing: fleet.tasks counts every dispatched pair, hits plus misses sum
// to it, and the shard-balance gauges match each node's share.
func TestFleetShardCacheCrossRequest(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 6)
	m := perf.NewMetrics()
	c, nodes := localFleet(t, Config{Metrics: m}, names, seqs, 2)

	pairs := len(names) * (len(names) - 1) / 2
	_, _, hits, err := c.AllPairMatches(context.Background(), names, testK, testW)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("cold run reported %d cache hits", hits)
	}
	_, _, hits, err = c.AllPairMatches(context.Background(), names, testK, testW)
	if err != nil {
		t.Fatal(err)
	}
	if hits != pairs {
		t.Fatalf("warm run hit %d of %d pairs", hits, pairs)
	}
	if got := m.Counter("fleet.remote_hits"); got != int64(pairs) {
		t.Fatalf("fleet.remote_hits = %d, want %d", got, pairs)
	}
	t0, t1 := nodes[0].Worker().Ping(), nodes[1].Worker().Ping()
	if t0.Tasks == 0 || t1.Tasks == 0 {
		t.Fatalf("sharding routed no work to one node: %d / %d tasks", t0.Tasks, t1.Tasks)
	}
	if t0.Tasks+t1.Tasks != int64(2*pairs) {
		t.Fatalf("task split %d+%d != %d", t0.Tasks, t1.Tasks, 2*pairs)
	}

	tasks := m.Counter("fleet.tasks")
	if tasks != int64(2*pairs) {
		t.Fatalf("fleet.tasks = %d, want %d (two runs of %d pairs)", tasks, 2*pairs, pairs)
	}
	if hits, misses := m.Counter("fleet.remote_hits"), m.Counter("fleet.remote_misses"); hits+misses != tasks || misses != int64(pairs) {
		t.Fatalf("remote_hits %d + remote_misses %d, want %d with %d misses", hits, misses, tasks, pairs)
	}
	// No node died, so each node's shard owns exactly the pairs it served
	// per run, and the imbalance is the larger share over the mean.
	maxShard := int64(0)
	for i, w := range []PingReply{t0, t1} {
		got, _ := m.Gauge(obs.WithLabel("fleet.shard_pairs", "node", fmt.Sprintf("node-%d", i)))
		if got != w.Tasks/2 {
			t.Fatalf("fleet.shard_pairs{node=node-%d} = %d, want %d", i, got, w.Tasks/2)
		}
		maxShard = max(maxShard, got)
	}
	wantImbalance := int64(float64(maxShard) / (float64(pairs) / 2) * 1000)
	if got, _ := m.Gauge("fleet.shard_imbalance_milli"); got != wantImbalance || got < 1000 {
		t.Fatalf("fleet.shard_imbalance_milli = %d, want %d", got, wantImbalance)
	}
}

// gated wraps a transport and stalls Match calls until the gate closes —
// the deterministic way to keep a build in flight while a node dies.
// arrived closes when the first Match call reaches the gate.
type gated struct {
	Transport
	gate    chan struct{}
	arrived chan struct{}
	once    sync.Once
}

func (g *gated) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	g.once.Do(func() { close(g.arrived) })
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Transport.Match(ctx, req)
}

// TestFleetWorkerKillMidBuild kills a worker while a multi-pair build is
// in flight: its in-flight and future pairs must be re-issued to the
// surviving node, the merged result must stay byte-identical to the
// single-process run, and the registry must mark the node dead.
func TestFleetWorkerKillMidBuild(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 8)
	m := perf.NewMetrics()
	c := NewCoordinator(Config{
		Metrics:        m,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	t.Cleanup(c.Close)
	if err := c.RegisterAssemblies(names, seqs); err != nil {
		t.Fatal(err)
	}
	victim := NewLocalNode(NewWorker("node-0", 0), 0)
	survivor := NewLocalNode(NewWorker("node-1", 0), 0)
	gate := &gated{Transport: victim, gate: make(chan struct{}), arrived: make(chan struct{})}
	if err := c.AddNode("node-0", gate); err != nil {
		t.Fatal(err)
	}
	if err := c.AddNode("node-1", survivor); err != nil {
		t.Fatal(err)
	}

	want, _, err := build.AllPairMatches(context.Background(), seqs, testK, testW, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		blocks []build.MatchBlock
		err    error
	}
	done := make(chan result, 1)
	go func() {
		blocks, _, _, err := c.AllPairMatches(context.Background(), names, testK, testW)
		done <- result{blocks, err}
	}()

	// Once the build stalls on the victim's gated pairs, kill the node, then
	// open the gate so the stalled calls fail like a dead worker.
	<-gate.arrived
	victim.Kill()
	close(gate.gate)

	res := <-done
	if res.err != nil {
		t.Fatalf("build did not survive the worker kill: %v", res.err)
	}
	if !reflect.DeepEqual(res.blocks, want) {
		t.Fatal("result after worker kill differs from single-process build")
	}
	if got := m.Counter("fleet.reassigned"); got == 0 {
		t.Fatal("no tasks were reassigned despite a dead owner")
	}
	live := liveByName(c)
	if live["node-0"] {
		t.Fatal("registry did not mark the killed node dead")
	}
	if !live["node-1"] {
		t.Fatal("survivor marked dead")
	}
	if live, _ := m.Gauge("fleet.nodes_live"); live != 1 {
		t.Fatalf("fleet.nodes_live = %d, want 1", live)
	}
}

// TestFleetHeartbeatDeathAndRevival: a silent node is marked dead by the
// heartbeat loop within three heartbeats, and marked live again (with the catalog
// re-pushed) once it answers.
func TestFleetHeartbeatDeathAndRevival(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 4)
	c, nodes := localFleet(t, Config{
		HeartbeatEvery: 15 * time.Millisecond,
		Metrics:        perf.NewMetrics(),
	}, names, seqs, 2)

	liveCount := func() int {
		n := 0
		for _, live := range liveByName(c) {
			if live {
				n++
			}
		}
		return n
	}
	waitFor := func(want int, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for liveCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (live=%d, want %d)", what, liveCount(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	nodes[0].Kill()
	waitFor(1, "heartbeat to mark the killed node dead")

	// Matching keeps working against the surviving node.
	if _, _, _, err := c.Match(context.Background(), names[0], names[1], testK, testW); err != nil {
		t.Fatalf("match with one dead node: %v", err)
	}

	nodes[0].Revive()
	waitFor(2, "heartbeat to revive the node")
}

func TestFleetNoNodes(t *testing.T) {
	c := NewCoordinator(Config{})
	t.Cleanup(c.Close)
	if err := c.RegisterAssembly("a", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterAssembly("b", []byte("ACGG")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Match(context.Background(), "a", "b", 2, 2); !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("err = %v, want ErrNoLiveNodes", err)
	}
}
