package mapserve

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
)

// rendezvousTool is a real tool whose blockAt-th MapCtx call announces
// itself on entered and then parks until its context ends — the way a test
// cancels a query at a known point inside the kernel without sleeping.
// blockAt 0 never blocks.
type rendezvousTool struct {
	pipeline.ContextTool
	blockAt int32
	calls   atomic.Int32
	entered chan struct{}
}

func (r *rendezvousTool) MapCtx(ctx context.Context, read []byte, probe *perf.Probe) (pipeline.Result, pipeline.StageTimes, error) {
	if r.calls.Add(1) == r.blockAt {
		close(r.entered)
		<-ctx.Done()
		return pipeline.Result{}, pipeline.StageTimes{}, ctx.Err()
	}
	return r.ContextTool.MapCtx(ctx, read, probe)
}

// giraffeServiceFixture is a two-worker service over one published giraffe
// snapshot, simulated reads, and each read's direct serial mapping. The
// service traces into a default recorder (s.tracer).
func giraffeServiceFixture(t *testing.T, nReads, length int, blockAt int32) (*Service, *Registry, *rendezvousTool, [][]byte, []pipeline.Result) {
	t.Helper()
	pop := testPop(t, 8000, 4)
	sim, err := pop.SimulateReads(gensim.ReadConfig{Count: nReads, Length: length, SubRate: 0.002, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	giraffe, err := pipeline.NewVgGiraffe(pop.Graph, 15, 10)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([][]byte, nReads)
	want := make([]pipeline.Result, nReads)
	for i, r := range sim {
		reads[i] = r.Seq
		want[i], _, _ = giraffe.MapCtx(context.Background(), r.Seq, nil)
	}
	tool := &rendezvousTool{ContextTool: giraffe, blockAt: blockAt, entered: make(chan struct{})}
	snap, err := NewSnapshotWithTool("pop", pop.Graph, tool)
	if err != nil {
		t.Fatal(err)
	}
	reg := &Registry{}
	if _, err := reg.Publish(snap); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{Workers: 2, Tracer: obs.NewTracer(obs.TracerConfig{})})
	return s, reg, tool, reads, want
}

// answer is one query's outcome, tagged with its read's index.
type answer struct {
	i    int
	resp *Response
	err  error
}

// mapConcurrently issues one query per read from its own goroutine; the
// returned channel yields the len(reads) answers as they arrive.
func mapConcurrently(ctx context.Context, s *Service, reads [][]byte) <-chan answer {
	answers := make(chan answer, len(reads))
	for i := range reads {
		go func(i int) {
			resp, err := s.Map(ctx, reads[i])
			answers <- answer{i, resp, err}
		}(i)
	}
	return answers
}

// TestConcurrentQueriesMatchSerial is the serving-tier differential: queries
// racing over two workers must each answer byte-identically to a direct
// serial Map of the same read, with a measured map time that covers the
// query's own kernel stages. Each query is its own unit: its trace is
// admission → snapshot.acquire → map with nothing after the map, so the
// request ends when its own mapping does.
func TestConcurrentQueriesMatchSerial(t *testing.T) {
	s, _, _, reads, want := giraffeServiceFixture(t, 8, 600, 0)
	defer s.Close()

	answers := mapConcurrently(context.Background(), s, reads)
	for range reads {
		a := <-answers
		if a.err != nil {
			t.Errorf("query %d: %v", a.i, a.err)
			continue
		}
		if a.resp.Result != want[a.i] {
			t.Errorf("query %d: served %+v != serial %+v", a.i, a.resp.Result, want[a.i])
		}
		if a.resp.MapTime <= 0 || a.resp.Stages.Total() > a.resp.MapTime {
			t.Errorf("query %d: map time %v does not cover its stages %v", a.i, a.resp.MapTime, a.resp.Stages.Total())
		}
	}

	traces := s.tracer.Recorder().Last(len(reads))
	if len(traces) != len(reads) {
		t.Fatalf("recorder retained %d traces, want %d", len(traces), len(reads))
	}
	end := func(d obs.SpanData) time.Time { return d.Start.Add(d.Duration) }
	for i, root := range traces {
		var names []string
		for _, c := range root.Children {
			names = append(names, c.Name)
		}
		if got := strings.Join(names, " "); got != "admission snapshot.acquire map" {
			t.Errorf("trace %d stages %q, want admission, snapshot.acquire, map:\n%s", i, got, root.Tree())
			continue
		}
		if mapSpan := root.Children[2]; end(root).Before(end(mapSpan)) {
			t.Errorf("trace %d: root ends %v, before its map at %v:\n%s", i, end(root), end(mapSpan), root.Tree())
		}
	}
}

// TestCancelReleasesSnapshot is the cancellation and refcount-drain test:
// eight queries share one cancelable context and the third to reach the
// kernel parks there. A parked query holds up nobody else — the other seven
// answer normally on the second worker — and when the context is then
// canceled it alone fails, with context.Canceled. The service keeps serving,
// and once closed no snapshot reference is left held.
func TestCancelReleasesSnapshot(t *testing.T) {
	s, reg, tool, reads, want := giraffeServiceFixture(t, 8, 900, 3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	answers := mapConcurrently(ctx, s, reads)
	<-tool.entered
	for n := 0; n < len(reads)-1; n++ {
		if a := <-answers; a.err != nil {
			t.Errorf("query %d, answered while another was parked in the kernel: %v", a.i, a.err)
		} else if a.resp.Result != want[a.i] {
			t.Errorf("query %d: served %+v != serial %+v", a.i, a.resp.Result, want[a.i])
		}
	}
	cancel()
	if a := <-answers; !errors.Is(a.err, context.Canceled) {
		t.Errorf("query %d, canceled inside the kernel: %v, want context.Canceled", a.i, a.err)
	}

	// The service keeps serving after the canceled query.
	answers = mapConcurrently(context.Background(), s, reads)
	for range reads {
		if a := <-answers; a.err != nil {
			t.Errorf("post-cancel query %d: %v", a.i, a.err)
		} else if a.resp.Result != want[a.i] {
			t.Errorf("post-cancel query %d: %+v != serial %+v", a.i, a.resp.Result, want[a.i])
		}
	}

	// Close joins the workers, so every query's Release has run: the
	// registry must hold no in-flight query (its own reference on the
	// current snapshot is not a query).
	s.Close()
	for _, info := range reg.Stats() {
		if info.InFlight != 0 {
			t.Errorf("snapshot references leaked after a canceled query: %+v", reg.Stats())
		}
	}
}
