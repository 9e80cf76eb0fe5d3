package mapserve

import (
	"context"
	"errors"
	"math"
	"sort"
	"testing"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// findChild returns the first direct child span named name.
func findChild(d obs.SpanData, name string) (obs.SpanData, bool) {
	for _, c := range d.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obs.SpanData{}, false
}

// attrValue returns the value of the span's first attribute with key.
func attrValue(d obs.SpanData, key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTracedQueryStageSum is the trace-attribution acceptance test: a query
// mapped through a real tool produces a trace whose direct children
// (admission → snapshot.acquire → map) account for the request latency —
// their durations sum to within 10% of the root span's — and whose map span
// carries the kernel's per-stage breakdown as children.
//
// A request here is tens of microseconds, so one timer interrupt landing
// between two stages is a quarter of it. The bound is therefore held by the
// median of nine sequential queries: what the executor leaves uncovered on
// every request moves the median, a single interrupted request does not.
func TestTracedQueryStageSum(t *testing.T) {
	pop := testPop(t, 8000, 4)
	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: 1, Length: 150, SubRate: 0.002, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot("pop", pop.Graph, DefaultToolConfig(ToolGiraffe))
	if err != nil {
		t.Fatal(err)
	}
	reg := &Registry{}
	if _, err := reg.Publish(snap); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerConfig{})
	s := New(reg, Config{Workers: 1, Tracer: tr})
	defer s.Close()

	const queries = 9
	for i := 0; i < queries; i++ {
		if _, err := s.Map(context.Background(), reads[0].Seq); err != nil {
			t.Fatal(err)
		}
	}
	traces := tr.Recorder().Last(queries)
	if len(traces) != queries {
		t.Fatalf("recorder retained %d traces, want %d", len(traces), queries)
	}
	for _, root := range traces {
		if root.Name != "mapserve.query" {
			t.Fatalf("root span %q, want mapserve.query", root.Name)
		}
		if root.Failed() {
			t.Fatalf("successful query marked failed: %s", root.Tree())
		}
		for _, name := range []string{"admission", "snapshot.acquire", "map"} {
			if _, ok := findChild(root, name); !ok {
				t.Errorf("trace missing %q child:\n%s", name, root.Tree())
			}
		}
		if got := attrValue(root, "snapshot"); got != "pop" {
			t.Errorf("snapshot attr %q, want pop", got)
		}
		if got := attrValue(root, "generation"); got != "1" {
			t.Errorf("generation attr %q, want 1", got)
		}
		// The kernel's stage timers annotate the map span through the
		// context the executor threads into MapCtx.
		mapSpan, _ := findChild(root, "map")
		for _, stage := range []string{"seed", "chain", "align"} {
			if _, ok := findChild(mapSpan, stage); !ok {
				t.Errorf("map span missing kernel stage %q:\n%s", stage, root.Tree())
			}
		}
	}

	// Attribution: direct children must account for the request latency.
	uncovered := func(root obs.SpanData) float64 {
		return math.Abs(float64(root.StageSum()-root.Duration)) / float64(root.Duration)
	}
	sort.Slice(traces, func(i, j int) bool { return uncovered(traces[i]) < uncovered(traces[j]) })
	if root := traces[queries/2]; uncovered(root) > 0.10 {
		t.Errorf("median request: stage sum %v outside 10%% of request latency %v:\n%s",
			root.StageSum(), root.Duration, root.Tree())
	}
}

// TestShedTracesDistinctCountersAndExemplars covers the shed paths end to
// end: queue-overflow and deadline sheds increment their own counters, and
// both produce shed/error traces that the flight recorder's exemplar set
// retains even after successful traffic scrolls them out of the ring.
func TestShedTracesDistinctCountersAndExemplars(t *testing.T) {
	tool := &blockingTool{gate: make(chan struct{}), started: make(chan struct{}, 8)}
	m := perf.NewMetrics()
	tr := obs.NewTracer(obs.TracerConfig{Capacity: 2, Metrics: m})
	s, _ := stubService(t, tool, Config{Workers: 1, QueueDepth: 1, Metrics: m, Tracer: tr})
	parked := parkWorker(t, s, tool)

	// A queued query with an already-canceled context sheds on deadline at
	// its execution turn.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	deadlineDone := make(chan error, 1)
	go func() {
		_, err := s.Map(canceled, []byte("CCCC"))
		deadlineDone <- err
	}()
	awaitQueued(s, 1)

	// It fills the queue, so the next query sheds at admission.
	if _, err := s.Map(context.Background(), []byte("GGGG")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query behind a full queue: %v, want ErrOverloaded", err)
	}

	close(tool.gate)
	<-parked
	if err := <-deadlineDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled query: %v, want context.Canceled", err)
	}

	// Distinct counters per shed cause.
	if got := m.Counter("mapserve.shed_queue"); got != 1 {
		t.Errorf("shed_queue = %d, want 1", got)
	}
	if got := m.Counter("mapserve.shed_deadline"); got != 1 {
		t.Errorf("shed_deadline = %d, want 1", got)
	}

	// Scroll the ring (capacity 2) with fresh successful queries: the shed
	// traces must survive in the exemplar set.
	for i := 0; i < 4; i++ {
		if _, err := s.Map(context.Background(), []byte("TTTT")); err != nil {
			t.Fatalf("post-shed query %d: %v", i, err)
		}
	}
	s.Close()

	for _, d := range tr.Recorder().Last(2) {
		if d.Failed() {
			t.Errorf("ring still holds a failed trace after scroll-out: %s", d.Tree())
		}
	}
	reasons := map[string]int{}
	for _, d := range tr.Recorder().Errors() {
		if !d.Shed {
			t.Errorf("error exemplar not marked shed: %s", d.Tree())
		}
		if d.Error == "" {
			t.Errorf("shed exemplar has no error: %s", d.Tree())
		}
		reasons[attrValue(d, "shed")]++
	}
	if reasons["queue"] == 0 || reasons["deadline"] == 0 {
		t.Errorf("exemplar shed reasons %v, want both queue and deadline", reasons)
	}
	// Exemplars() pools slowest-per-endpoint and the shed/error traces.
	failed := 0
	for _, d := range tr.Recorder().Exemplars() {
		if d.Failed() {
			failed++
		}
	}
	if failed < 2 {
		t.Errorf("exemplar set retains %d failed traces, want ≥2", failed)
	}
}

// BenchmarkMapNilTracer pins the hot-path allocation baseline with tracing
// disabled: the nil-tracer instrumentation must add zero allocations over
// the untraced executor (the nil-Probe rule; obs.TestNilTracerZeroAlloc
// asserts the instrumentation sequence itself allocates nothing).
func BenchmarkMapNilTracer(b *testing.B) {
	benchmarkMap(b, nil)
}

// BenchmarkMapTraced is the traced counterpart, for comparing against
// BenchmarkMapNilTracer.
func BenchmarkMapTraced(b *testing.B) {
	benchmarkMap(b, obs.NewTracer(obs.TracerConfig{}))
}

func benchmarkMap(b *testing.B, tr *obs.Tracer) {
	pop := testPop(b, 2000, 2)
	snap, err := NewSnapshotWithTool("bench", pop.Graph, &blockingTool{})
	if err != nil {
		b.Fatal(err)
	}
	reg := &Registry{}
	if _, err := reg.Publish(snap); err != nil {
		b.Fatal(err)
	}
	s := New(reg, Config{Workers: 2, Tracer: tr})
	defer s.Close()
	read := []byte("ACGTACGTACGTACGT")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Map(context.Background(), read); err != nil {
			b.Fatal(err)
		}
	}
}
