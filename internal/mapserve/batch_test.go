package mapserve

import (
	"context"
	"errors"
	"sync"
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
// cancels a batch at a known query without sleeping. blockAt 0 never blocks.
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

// batchServiceFixture is a service over one published giraffe snapshot,
// simulated reads, and each read's direct serial mapping. MaxBatch equals
// the read count and BatchWait is far beyond the test's runtime, so
// len(reads) concurrent queries always form exactly one micro-batch. The
// service traces into a default recorder (s.tracer).
func batchServiceFixture(t *testing.T, nReads, length int, blockAt int32) (*Service, *Registry, *rendezvousTool, [][]byte, []pipeline.Result) {
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
		want[i], _ = giraffe.Map(r.Seq, nil)
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
	s := New(reg, Config{Workers: 1, MaxBatch: nReads, BatchWait: time.Minute, Tracer: obs.NewTracer(obs.TracerConfig{})})
	return s, reg, tool, reads, want
}

// mapConcurrently issues one query per read from its own goroutine and
// returns the responses and errors in read order.
func mapConcurrently(ctx context.Context, s *Service, reads [][]byte) ([]*Response, []error) {
	resps := make([]*Response, len(reads))
	errs := make([]error, len(reads))
	var wg sync.WaitGroup
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = s.Map(ctx, reads[i])
		}(i)
	}
	wg.Wait()
	return resps, errs
}

// TestGroupedQueriesMatchSerial is the serving-tier differential: queries
// that ride one micro-batch must each answer byte-identically to a direct
// serial Map of the same read, with a measured map time that covers the
// query's own kernel stages. The batch answers as a unit: every trace has a
// batch.tail stage running from its own map's end to one instant shared by
// the whole batch, and no query's root span ends before that instant.
func TestGroupedQueriesMatchSerial(t *testing.T) {
	s, _, _, reads, want := batchServiceFixture(t, 8, 600, 0)
	defer s.Close()

	resps, errs := mapConcurrently(context.Background(), s, reads)
	for i, resp := range resps {
		if errs[i] != nil {
			t.Errorf("query %d: %v", i, errs[i])
			continue
		}
		if resp.Result != want[i] {
			t.Errorf("query %d: batched %+v != serial %+v", i, resp.Result, want[i])
		}
		if resp.BatchSize != len(reads) {
			t.Errorf("query %d: rode a batch of %d, want %d", i, resp.BatchSize, len(reads))
		}
		if resp.MapTime <= 0 || resp.Stages.Total() > resp.MapTime {
			t.Errorf("query %d: map time %v does not cover its stages %v", i, resp.MapTime, resp.Stages.Total())
		}
	}

	traces := s.tracer.Recorder().Last(len(reads))
	if len(traces) != len(reads) {
		t.Fatalf("recorder retained %d traces, want %d", len(traces), len(reads))
	}
	end := func(d obs.SpanData) time.Time { return d.Start.Add(d.Duration) }
	var answered time.Time
	for i, root := range traces {
		mapSpan, okMap := findChild(root, "map")
		tail, okTail := findChild(root, "batch.tail")
		if !okMap || !okTail {
			t.Fatalf("trace %d missing map or batch.tail:\n%s", i, root.Tree())
		}
		if i == 0 {
			answered = end(tail)
		}
		if tail.Start.Before(end(mapSpan)) || !end(tail).Equal(answered) || end(root).Before(answered) {
			t.Errorf("trace %d: map ends %v, batch.tail %v → %v, root ends %v; batch answered at %v:\n%s",
				i, end(mapSpan), tail.Start, end(tail), end(root), answered, root.Tree())
		}
	}
}

// TestGroupCancelReleasesSnapshot is the batch-level cancellation and
// refcount-drain test: eight queries sharing one cancelable context ride one
// micro-batch, and the context is canceled while the third is inside the
// kernel. The two already mapped answer normally, the third and every later
// one shed with context.Canceled, the service keeps serving, and the
// batch's single snapshot reference is released.
func TestGroupCancelReleasesSnapshot(t *testing.T) {
	s, reg, tool, reads, want := batchServiceFixture(t, 8, 900, 3)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-tool.entered
		cancel()
	}()
	resps, errs := mapConcurrently(ctx, s, reads)
	answered := 0
	for i, err := range errs {
		switch {
		case err == nil:
			answered++
			if resps[i].Result != want[i] {
				t.Errorf("query %d: completed before the cancel with %+v, serial %+v", i, resps[i].Result, want[i])
			}
		case !errors.Is(err, context.Canceled):
			t.Errorf("query %d: unexpected error %v", i, err)
		}
	}
	if answered != 2 {
		t.Errorf("%d queries answered, want the 2 mapped before the cancel", answered)
	}

	// The service keeps serving after the canceled batch.
	resps, errs = mapConcurrently(context.Background(), s, reads)
	for i, resp := range resps {
		if errs[i] != nil {
			t.Fatalf("post-cancel query %d: %v", i, errs[i])
		}
		if resp.Result != want[i] {
			t.Errorf("post-cancel query %d: %+v != serial %+v", i, resp.Result, want[i])
		}
	}

	// Close joins the worker, so every batch's deferred Release has run: the
	// registry must hold no in-flight query (its own reference on the
	// current snapshot is not a query).
	s.Close()
	for _, info := range reg.Stats() {
		if info.InFlight != 0 {
			t.Errorf("snapshot references leaked after canceled batch: %+v", reg.Stats())
		}
	}
}
