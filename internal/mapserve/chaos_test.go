package mapserve

import (
	"context"
	"errors"
	"testing"

	"pangenomicsbench/internal/perf"
)

// TestChaosShed pins the injection hook: while on, every new query sheds
// with ErrOverloaded under the dedicated mapserve.shed_chaos counter (the
// organic shed_queue counter stays untouched); off again, traffic flows.
func TestChaosShed(t *testing.T) {
	m := perf.NewMetrics()
	s, _ := stubService(t, &blockingTool{}, Config{Workers: 1, Metrics: m})
	defer s.Close()

	if _, err := s.Map(context.Background(), []byte("ACGTACGT")); err != nil {
		t.Fatalf("pre-chaos map: %v", err)
	}

	s.SetChaosShed(true)
	for i := 0; i < 5; i++ {
		if _, err := s.Map(context.Background(), []byte("ACGTACGT")); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("chaos map %d: %v, want ErrOverloaded", i, err)
		}
	}
	s.SetChaosShed(false)
	if _, err := s.Map(context.Background(), []byte("ACGTACGT")); err != nil {
		t.Fatalf("post-chaos map: %v", err)
	}

	snap := m.Snapshot()
	if got := snap.Counters["mapserve.shed_chaos"]; got != 5 {
		t.Fatalf("shed_chaos = %d, want 5", got)
	}
	if got := snap.Counters["mapserve.shed_queue"]; got != 0 {
		t.Fatalf("shed_queue = %d, want 0 — chaos sheds must not pollute the organic counter", got)
	}
	if got := snap.Counters["mapserve.mapped"]; got != 2 {
		t.Fatalf("mapped = %d, want 2", got)
	}
}
