package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

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

// localFleet builds a coordinator over n workers, registered as
// node-0..node-(n-1), with the catalog names registered.
func localFleet(t testing.TB, cfg Config, names []string, n int) *Coordinator {
	t.Helper()
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	for _, name := range names {
		if err := c.RegisterAssembly(name); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("node-%d", i)
		if err := c.AddNode(name, NewWorker(name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

const testK, testW = 15, 10

// cohortMatches runs every pair of the cohort through the fleet with
// build.CohortMatches, as a serve build does.
func cohortMatches(ctx context.Context, c *Coordinator, names []string, seqs [][]byte) ([]build.MatchBlock, build.PairStats, int, error) {
	return build.CohortMatches(ctx, names, seqs, 4,
		func(ctx context.Context, a, b string, seqA, seqB []byte) ([]build.MatchBlock, build.PairStats, bool, error) {
			return c.Match(ctx, a, b, seqA, seqB, testK, testW)
		})
}

// TestFleetIdenticalToSingleProcess is the fleet acceptance differential:
// a 2-worker fleet's merged all-pair match blocks equal
// build.AllPairMatches exactly, and the graph induced from them is
// byte-identical GFA to a single-process build.PGGB.
func TestFleetIdenticalToSingleProcess(t *testing.T) {
	names, seqs := testCatalog(t, 6000, 6)
	c := localFleet(t, Config{Metrics: perf.NewMetrics()}, names, 2)

	want, wantStats, err := build.AllPairMatches(context.Background(), seqs, testK, testW, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, _, err := cohortMatches(context.Background(), c, names, seqs)
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
	c := localFleet(t, Config{Metrics: m}, names, 2)

	pairs := len(names) * (len(names) - 1) / 2
	_, _, hits, err := cohortMatches(context.Background(), c, names, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("cold run reported %d cache hits", hits)
	}
	_, _, hits, err = cohortMatches(context.Background(), c, names, seqs)
	if err != nil {
		t.Fatal(err)
	}
	if hits != pairs {
		t.Fatalf("warm run hit %d of %d pairs", hits, pairs)
	}
	if got := m.Counter("fleet.remote_hits"); got != int64(pairs) {
		t.Fatalf("fleet.remote_hits = %d, want %d", got, pairs)
	}
	served := []int64{
		m.Counter(obs.WithLabel("fleet.dispatched", "node", "node-0")),
		m.Counter(obs.WithLabel("fleet.dispatched", "node", "node-1")),
	}
	if served[0] == 0 || served[1] == 0 {
		t.Fatalf("sharding routed no work to one node: %d / %d pairs", served[0], served[1])
	}
	if served[0]+served[1] != int64(2*pairs) {
		t.Fatalf("pair split %d+%d != %d", served[0], served[1], 2*pairs)
	}

	tasks := m.Counter("fleet.tasks")
	if tasks != int64(2*pairs) {
		t.Fatalf("fleet.tasks = %d, want %d (two runs of %d pairs)", tasks, 2*pairs, pairs)
	}
	if hits, misses := m.Counter("fleet.remote_hits"), m.Counter("fleet.remote_misses"); hits+misses != tasks || misses != int64(pairs) {
		t.Fatalf("remote_hits %d + remote_misses %d, want %d with %d misses", hits, misses, tasks, pairs)
	}
	// Each node's shard owns exactly the pairs it served per run, and the
	// imbalance is the larger share over the mean.
	maxShard := int64(0)
	for i, n := range served {
		got, _ := m.Gauge(obs.WithLabel("fleet.shard_pairs", "node", fmt.Sprintf("node-%d", i)))
		if got != n/2 {
			t.Fatalf("fleet.shard_pairs{node=node-%d} = %d, want %d", i, got, n/2)
		}
		maxShard = max(maxShard, got)
	}
	wantImbalance := int64(float64(maxShard) / (float64(pairs) / 2) * 1000)
	if got, _ := m.Gauge("fleet.shard_imbalance_milli"); got != wantImbalance || got < 1000 {
		t.Fatalf("fleet.shard_imbalance_milli = %d, want %d", got, wantImbalance)
	}
}

func TestFleetNoNodes(t *testing.T) {
	c := localFleet(t, Config{}, []string{"a", "b"}, 0)
	if _, _, _, err := c.Match(context.Background(), "a", "b", []byte("ACGT"), []byte("ACGG"), 2, 2); !errors.Is(err, ErrNoLiveNodes) {
		t.Fatalf("err = %v, want ErrNoLiveNodes", err)
	}
}

// TestNewLocalNodeRejectsWidth: NewLocalNode passes the worker through at
// width 0 and panics on any other width, which no worker can honour.
func TestNewLocalNodeRejectsWidth(t *testing.T) {
	w := NewWorker("w", 0)
	if got := NewLocalNode(w, 0); got != w {
		t.Fatal("NewLocalNode(w, 0) did not return w")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewLocalNode(w, 1) did not panic")
		}
	}()
	NewLocalNode(w, 1)
}
