package serve

import (
	"bytes"
	"context"
	"testing"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/fleet"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// fleetService wires a service onto a fleet of n workers and registers the
// catalog (which RegisterAssemblies forwards to the coordinator). It
// returns the fleet's metrics.
func fleetService(t testing.TB, n int, names []string, seqs [][]byte) (*Service, *perf.Metrics) {
	t.Helper()
	m := perf.NewMetrics()
	c := fleet.NewCoordinator(fleet.Config{Metrics: m})
	t.Cleanup(c.Close)
	for i := 0; i < n; i++ {
		name := string(rune('a'+i)) + "-node"
		if err := c.AddNode(name, fleet.NewWorker(name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Config{Fleet: c, Metrics: perf.NewMetrics()})
	if err := s.RegisterAssemblies(names, seqs); err != nil {
		t.Fatal(err)
	}
	return s, m
}

// TestFleetBuildIdenticalToLocal is the serve-mode fleet acceptance test:
// a build routed through a two-worker fleet is byte-identical to both the
// direct build.PGGB result and the local cached serve path, and the warm
// fleet request is served entirely from worker shard caches.
func TestFleetBuildIdenticalToLocal(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 5)
	req := pggbRequest(names)

	direct, err := build.PGGB(context.Background(), names, seqs, req.PGGB, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := gfaBytes(t, direct)

	local := testService(t, Config{}, names, seqs)
	lres, err := local.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, lres.Result), want) {
		t.Fatal("local serve path differs from direct build.PGGB")
	}

	s, _ := fleetService(t, 2, names, seqs)
	cold, err := s.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, cold.Result), want) {
		t.Fatal("fleet serve result differs from direct build.PGGB")
	}
	pairs := len(names) * (len(names) - 1) / 2
	if cold.PairMisses != pairs || cold.PairHits != 0 {
		t.Fatalf("cold fleet request: %d misses / %d hits, want %d / 0",
			cold.PairMisses, cold.PairHits, pairs)
	}

	// Warm request: every pair is a worker shard-cache hit.
	warm, err := s.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, warm.Result), want) {
		t.Fatal("warm fleet serve result differs from direct build.PGGB")
	}
	if warm.PairHits != pairs || warm.PairMisses != 0 {
		t.Fatalf("warm fleet request not fully cached: %d hits / %d misses",
			warm.PairHits, warm.PairMisses)
	}
	if direct.Stats != cold.Result.Stats || direct.Stats != warm.Result.Stats {
		t.Fatalf("stats diverge:\ndirect %+v\ncold   %+v\nwarm   %+v",
			direct.Stats, cold.Result.Stats, warm.Result.Stats)
	}
}

// TestFleetBuildReverseCohort checks the fleet path remaps canonical
// worker results into cohort coordinates correctly when the cohort is not
// name-sorted (every pair arrives swapped).
func TestFleetBuildReverseCohort(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 4)
	rev := make([]string, len(names))
	revSeqs := make([][]byte, len(seqs))
	for i := range names {
		rev[len(names)-1-i] = names[i]
		revSeqs[len(seqs)-1-i] = seqs[i]
	}
	req := pggbRequest(rev)

	direct, err := build.PGGB(context.Background(), rev, revSeqs, req.PGGB, nil)
	if err != nil {
		t.Fatal(err)
	}

	s, _ := fleetService(t, 3, names, seqs)
	res, err := s.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, res.Result), gfaBytes(t, direct)) {
		t.Fatal("fleet build of reversed cohort differs from direct build.PGGB")
	}
}

// TestFleetRegisterForwards checks RegisterAssembly forwards the catalog
// to the fleet coordinator: a duplicate is rejected, and the forwarded
// names are what the shard gauges count, so fleet.shard_pairs over the
// nodes sums to every unordered catalog pair.
func TestFleetRegisterForwards(t *testing.T) {
	names, seqs := testCatalog(t, 3000, 3)
	s, m := fleetService(t, 2, names, seqs)

	if err := s.RegisterAssembly(names[0], seqs[0]); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	var sum int64
	for _, node := range []string{"a-node", "b-node"} {
		v, _ := m.Gauge(obs.WithLabel("fleet.shard_pairs", "node", node))
		sum += v
	}
	if want := int64(len(names) * (len(names) - 1) / 2); sum != want {
		t.Fatalf("fleet.shard_pairs sums to %d over the nodes, want %d", sum, want)
	}
}
