package serve

import (
	"context"
	"errors"
	"testing"

	"pangenomicsbench/internal/perf"
)

// TestChaosRejectBuilds pins the build-tier injection hook: while on, every
// Build fails fast with ErrChaosReject under its own counter; off again,
// the same request builds normally.
func TestChaosRejectBuilds(t *testing.T) {
	m := perf.NewMetrics()
	names, seqs := testCatalog(t, 3_000, 3)
	s := testService(t, Config{Workers: 1, Metrics: m}, names, seqs)

	s.SetChaosRejectBuilds(true)
	for i := 0; i < 3; i++ {
		if _, err := s.Build(context.Background(), pggbRequest(names)); !errors.Is(err, ErrChaosReject) {
			t.Fatalf("build %d under chaos: %v, want ErrChaosReject", i, err)
		}
	}

	s.SetChaosRejectBuilds(false)
	resp, err := s.Build(context.Background(), pggbRequest(names))
	if err != nil {
		t.Fatalf("post-chaos build: %v", err)
	}
	if resp.Result == nil || resp.Result.Graph == nil {
		t.Fatal("post-chaos build returned no graph")
	}

	snap := m.Snapshot()
	if got := snap.Counters["serve.reject_chaos"]; got != 3 {
		t.Fatalf("reject_chaos = %d, want 3", got)
	}
	// Chaos rejects fail before admission: no organic error is recorded.
	if got := snap.Counters["serve.errors"]; got != 0 {
		t.Fatalf("serve.errors = %d, want 0", got)
	}
}
