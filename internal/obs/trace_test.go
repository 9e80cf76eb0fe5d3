package obs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"pangenomicsbench/internal/perf"
)

func TestSpanTree(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("query")
	root.SetInt("read_len", 150)
	admission := time.Now().Add(-3 * time.Millisecond)
	root.Stage("admission", admission, 3*time.Millisecond)
	m := root.Child("map")
	m.Stage("seed", time.Now(), time.Millisecond)
	m.Stage("align", time.Now(), 2*time.Millisecond)
	m.End()
	root.End()

	got := tr.Recorder().Last(1)
	if len(got) != 1 {
		t.Fatalf("recorder retained %d traces, want 1", len(got))
	}
	d := got[0]
	if d.Name != "query" || len(d.Children) != 2 {
		t.Fatalf("trace = %+v", d)
	}
	if d.Children[0].Name != "admission" || d.Children[0].Duration != 3*time.Millisecond {
		t.Fatalf("admission child = %+v", d.Children[0])
	}
	mp := d.Children[1]
	if mp.Name != "map" || len(mp.Children) != 2 || mp.Children[0].Name != "seed" {
		t.Fatalf("map child = %+v", mp)
	}
	if len(d.Attrs) != 1 || d.Attrs[0].Key != "read_len" || d.Attrs[0].Value != "150" {
		t.Fatalf("attrs = %+v", d.Attrs)
	}
	tree := d.Tree()
	for _, want := range []string{"query", "├─ admission", "└─ map", "   ├─ seed", "   └─ align"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
	if line := d.JSONLine(); !strings.Contains(line, `"name":"query"`) || strings.Contains(line, "\n") {
		t.Errorf("json line = %s", line)
	}
}

func TestSpanContextPropagation(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("root")
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatal("span did not round-trip through context")
	}
	ctx2, child := StartSpan(ctx, "child")
	if child == nil || SpanFromContext(ctx2) != child {
		t.Fatal("StartSpan did not install the child")
	}
	AddStage(ctx2, "stage", time.Now(), time.Millisecond)
	child.End()
	root.End()

	d := tr.Recorder().Last(1)[0]
	if len(d.Children) != 1 || d.Children[0].Name != "child" {
		t.Fatalf("children = %+v", d.Children)
	}
	if len(d.Children[0].Children) != 1 || d.Children[0].Children[0].Name != "stage" {
		t.Fatalf("grandchildren = %+v", d.Children[0].Children)
	}

	// Without a span in ctx everything is a no-op.
	plain := context.Background()
	ctx3, sp := StartSpan(plain, "x")
	if sp != nil || ctx3 != plain {
		t.Fatal("StartSpan without a span in ctx must return (ctx, nil)")
	}
	AddStage(plain, "y", time.Now(), time.Second)
}

// TestNilTracerZeroAlloc pins the acceptance rule: with tracing disabled
// (nil tracer → nil spans), every instrumentation call the serve tiers and
// kernels make allocates nothing.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	start := time.Now()
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartRoot("query")
		sp.SetInt("n", 1)
		sp.Set("k", "v")
		sp.Stage("admission", start, time.Millisecond)
		child := sp.Child("map")
		cctx := ContextWithSpan(ctx, child)
		AddStage(cctx, "seed", start, time.Millisecond)
		_, sub := StartSpan(cctx, "sub")
		sub.End()
		child.Error(errNil)
		child.Shed("queue")
		child.End()
		sp.End()
		tr.Recorder().add(SpanData{})
	})
	if allocs != 0 {
		t.Fatalf("nil tracer instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}

var errNil = errors.New("x")

func TestErrorAndShedMarking(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("query")
	sp.Shed("deadline")
	sp.Error(errors.New("deadline exceeded"))
	sp.End()
	sp.End() // idempotent

	if got := tr.Recorder().Total(); got != 1 {
		t.Fatalf("total = %d, want 1 (End must be idempotent)", got)
	}
	d := tr.Recorder().Last(1)[0]
	if !d.Shed || d.Error != "deadline exceeded" || !d.Failed() {
		t.Fatalf("trace = %+v", d)
	}
	errs := tr.Recorder().Errors()
	if len(errs) != 1 || errs[0].Name != "query" {
		t.Fatalf("error exemplars = %+v", errs)
	}
	if tree := d.Tree(); !strings.Contains(tree, "shed=deadline") || !strings.Contains(tree, "ERROR(") {
		t.Fatalf("tree does not surface the failure:\n%s", tree)
	}
}

func TestSpanMetricsAttachment(t *testing.T) {
	m := perf.NewMetrics()
	tr := NewTracer(TracerConfig{Metrics: m})
	sp := tr.StartRoot("query")
	sp.Stage("seed", time.Now(), 2*time.Millisecond)
	sp.End()
	snap := m.Snapshot()
	if snap.Latencies["span.query"].Count != 1 {
		t.Errorf("span.query latency not observed: %+v", snap.Latencies)
	}
	if got := snap.Latencies["span.seed"]; got.Count != 1 || got.Total != 2*time.Millisecond {
		t.Errorf("span.seed latency = %+v", got)
	}
}

func TestSpanProbeAttachment(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("query")
	p := perf.NewProbe()
	p.Op(perf.ScalarInt, 41)
	p.Load(0x40, 8)
	sp.AttachProbe(p)
	sp.End()
	d := tr.Recorder().Last(1)[0]
	attrs := map[string]string{}
	for _, a := range d.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["instructions"] != "42" || attrs["loads"] != "1" {
		t.Fatalf("probe attrs = %v", attrs)
	}
}

func TestRecorderRingAndExemplars(t *testing.T) {
	rec := newRecorder(TracerConfig{Capacity: 4})

	// The slowest trace lands early, then scrolls out of the tiny ring.
	const slowDur = 20 * time.Millisecond
	rec.add(mkTrace("query", slowDur, false))
	for i := 0; i < 8; i++ {
		rec.add(mkTrace("query", time.Millisecond, false))
	}
	const sheds = errorCapacity + 4
	for i := 0; i < sheds; i++ {
		rec.add(mkTrace("query", time.Millisecond, true))
	}

	if got, want := rec.Total(), uint64(1+8+sheds); got != want {
		t.Fatalf("total = %d, want %d", got, want)
	}
	if got := len(rec.Last(100)); got != 4 {
		t.Fatalf("ring retained %d, want capacity 4", got)
	}
	if got := len(rec.Errors()); got != errorCapacity {
		t.Fatalf("error exemplars retained %d, want capacity %d", got, errorCapacity)
	}
	// The slowest-per-name exemplar survived the ring scroll-out.
	slowest := rec.Slowest(1)
	if len(slowest) != 1 || slowest[0].Duration != slowDur {
		t.Fatalf("slowest = %+v, want the %v trace", slowest, slowDur)
	}
	ex := rec.Exemplars()
	if len(ex) != 1+errorCapacity { // 1 slowest-per-name + the retained errors
		t.Fatalf("exemplars = %d traces, want %d", len(ex), 1+errorCapacity)
	}
	if ex[0].Duration != slowDur {
		t.Fatalf("first exemplar is not the slowest: %+v", ex[0])
	}
}

func TestRecorderSlowestDistinct(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 16})
	for i := 0; i < 6; i++ {
		sp := tr.StartRoot(fmt.Sprintf("ep-%d", i%2))
		sp.End()
	}
	got := tr.Recorder().Slowest(100)
	if len(got) != 6 {
		t.Fatalf("slowest returned %d traces, want 6 distinct", len(got))
	}
	if all := tr.Recorder().Slowest(math.MaxInt); len(all) != 6 {
		t.Fatalf("Slowest(MaxInt) returned %d traces, want 6", len(all))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Duration > got[i-1].Duration {
			t.Fatalf("slowest not sorted at %d: %v > %v", i, got[i].Duration, got[i-1].Duration)
		}
	}
}

// TestTracerConcurrent exercises the tracer under -race: many goroutines
// build and complete traces (with children) against one recorder.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerConfig{Capacity: 64, Metrics: perf.NewMetrics()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.StartRoot(fmt.Sprintf("ep-%d", g%3))
				c := sp.Child("stage")
				c.SetInt("i", int64(i))
				c.End()
				if i%17 == 0 {
					sp.Shed("queue")
				}
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Recorder().Total(); got != 1600 {
		t.Fatalf("total = %d, want 1600", got)
	}
	if got := len(tr.Recorder().Last(100)); got != 64 {
		t.Fatalf("ring retained %d, want 64", got)
	}
}
