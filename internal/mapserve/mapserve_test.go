package mapserve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
)

// blockingTool is a stub ContextTool whose MapCtx parks until released —
// the deterministic way to keep workers busy for admission-control tests.
type blockingTool struct {
	gate    chan struct{} // MapCtx blocks until this closes or yields one token (nil = no block)
	started chan struct{} // one send per MapCtx entry, if non-nil
}

func (b *blockingTool) Name() string { return "blocking" }
func (b *blockingTool) Map(read []byte, probe *perf.Probe) (pipeline.Result, pipeline.StageTimes) {
	r, st, _ := b.MapCtx(context.Background(), read, probe)
	return r, st
}
func (b *blockingTool) MapCtx(ctx context.Context, read []byte, probe *perf.Probe) (pipeline.Result, pipeline.StageTimes, error) {
	if b.started != nil {
		b.started <- struct{}{}
	}
	if b.gate != nil {
		select {
		case <-b.gate:
		case <-ctx.Done():
			return pipeline.Result{}, pipeline.StageTimes{}, ctx.Err()
		}
	}
	return pipeline.Result{Mapped: true, Node: 1, EditDistance: len(read)}, pipeline.StageTimes{}, nil
}
func (b *blockingTool) MapBatch(ctx context.Context, reads [][]byte, results []pipeline.Result, stages []pipeline.StageTimes, probe *perf.Probe) (int, error) {
	for i, read := range reads {
		r, st, err := b.MapCtx(ctx, read, probe)
		if err != nil {
			return i, &pipeline.BatchError{Done: i, Err: err}
		}
		results[i], stages[i] = r, st
	}
	return len(reads), nil
}

// stubService wires a blockingTool snapshot into a fresh service.
func stubService(t *testing.T, tool *blockingTool, cfg Config) (*Service, *Registry) {
	t.Helper()
	pop := testPop(t, 2000, 2)
	snap, err := NewSnapshotWithTool("stub", pop.Graph, tool)
	if err != nil {
		t.Fatal(err)
	}
	reg := &Registry{}
	if _, err := reg.Publish(snap); err != nil {
		t.Fatal(err)
	}
	return New(reg, cfg), reg
}

// TestMapBeforePublish rejects queries with ErrNoSnapshot but leaves the
// service healthy for queries after the first publication.
func TestMapBeforePublish(t *testing.T) {
	reg := &Registry{}
	s := New(reg, Config{Workers: 1})
	defer s.Close()

	if _, err := s.Map(context.Background(), []byte("ACGT")); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("pre-publish map: %v, want ErrNoSnapshot", err)
	}
	if _, err := s.Map(context.Background(), nil); err == nil {
		t.Fatal("empty read accepted")
	}

	pop := testPop(t, 2000, 2)
	snap, err := NewSnapshotWithTool("s", pop.Graph, &blockingTool{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(snap); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Map(context.Background(), []byte("ACGTACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Result.Mapped || resp.SnapshotID != "s" || resp.Generation != 1 {
		t.Fatalf("response %+v", resp)
	}
}

// parkWorker issues one query from its own goroutine and returns once the
// service's single worker is inside the tool, blocked on its gate; the
// returned channel closes when that query has answered.
func parkWorker(t *testing.T, s *Service, tool *blockingTool) <-chan struct{} {
	t.Helper()
	parked := make(chan struct{})
	go func() {
		defer close(parked)
		if _, err := s.Map(context.Background(), []byte("AAAA")); err != nil {
			t.Errorf("parked query: %v", err)
		}
	}()
	<-tool.started
	return parked
}

// awaitQueued yields until n admitted queries wait in the service's queue —
// the event a test needs before it can rely on the (n+1)-th being shed or on
// the queue's order.
func awaitQueued(s *Service, n int) {
	for len(s.queue) < n {
		runtime.Gosched()
	}
}

// TestQueueShedding pins the admission bound: with the single worker parked,
// exactly QueueDepth further queries are admitted and the next one sheds with
// ErrOverloaded; every admitted query still completes once the worker frees,
// and the queue-depth gauge peaks at QueueDepth and drains to zero.
func TestQueueShedding(t *testing.T) {
	tool := &blockingTool{gate: make(chan struct{}), started: make(chan struct{}, 8)}
	m := perf.NewMetrics()
	s, _ := stubService(t, tool, Config{Workers: 1, QueueDepth: 2, Metrics: m})
	parked := parkWorker(t, s, tool)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Map(context.Background(), []byte("GGGG")); err != nil {
				t.Errorf("queued query: %v", err)
			}
		}()
	}
	awaitQueued(s, 2)
	if _, err := s.Map(context.Background(), []byte("GGGG")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query behind a full queue: %v, want ErrOverloaded", err)
	}

	close(tool.gate)
	wg.Wait()
	<-parked
	s.Close()

	if got := m.Counter("mapserve.mapped"); got != 3 {
		t.Errorf("mapped = %d, want the 3 admitted (1 executing + QueueDepth 2)", got)
	}
	if got := m.Counter("mapserve.shed_queue"); got != 1 {
		t.Errorf("shed_queue = %d, want 1", got)
	}
	if depth, peak := m.Gauge("mapserve.queue_depth"); depth != 0 || peak != 2 {
		t.Errorf("queue depth gauge = %d (watermark %d), want 0 (watermark 2)", depth, peak)
	}
}

// TestDeadlineShedding covers deadline-aware admission control: a query
// whose deadline passed while it was queued is shed at its turn without
// mapping, and a context ending mid-map stops the kernel and fails only that
// query.
func TestDeadlineShedding(t *testing.T) {
	tool := &blockingTool{gate: make(chan struct{}), started: make(chan struct{}, 8)}
	m := perf.NewMetrics()
	s, _ := stubService(t, tool, Config{Workers: 1, QueueDepth: 8, Metrics: m})
	defer s.Close()
	parked := parkWorker(t, s, tool)

	// Queued behind the parked worker, in this order: a query whose deadline
	// has already passed, then one the test cancels once it is in the tool.
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	expiredDone := make(chan error, 1)
	go func() {
		_, err := s.Map(expired, []byte("CCCC"))
		expiredDone <- err
	}()
	awaitQueued(s, 1)
	midMap, cancelMidMap := context.WithCancel(context.Background())
	defer cancelMidMap()
	midMapDone := make(chan error, 1)
	go func() {
		_, err := s.Map(midMap, []byte("TTTT"))
		midMapDone <- err
	}()
	awaitQueued(s, 2)

	tool.gate <- struct{}{} // release the parked query only
	<-parked
	if err := <-expiredDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("query expired in the queue: %v, want context.DeadlineExceeded", err)
	}
	<-tool.started // the third query is inside the tool, waiting on the gate
	cancelMidMap()
	if err := <-midMapDone; !errors.Is(err, context.Canceled) {
		t.Errorf("query canceled mid-map: %v, want context.Canceled", err)
	}
	select {
	case <-tool.started:
		t.Error("the query that expired in the queue still reached the tool")
	default:
	}
	if got := m.Counter("mapserve.shed_deadline"); got != 2 {
		t.Errorf("shed_deadline = %d, want 2", got)
	}

	close(tool.gate)
	if _, err := s.Map(context.Background(), []byte("GGGG")); err != nil {
		t.Errorf("query after the two sheds: %v", err)
	}
}

// TestCloseDrains verifies Close answers every admitted query and rejects
// later ones.
func TestCloseDrains(t *testing.T) {
	tool := &blockingTool{}
	s, _ := stubService(t, tool, Config{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Map(context.Background(), []byte("ACGT")); err != nil {
				t.Errorf("pre-close query failed: %v", err)
			}
		}()
	}
	wg.Wait()
	s.Close()
	s.Close() // idempotent
	if _, err := s.Map(context.Background(), []byte("ACGT")); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close map: %v, want ErrClosed", err)
	}
}

// TestServedIdenticalColdWarmConcurrent is the mapping-determinism
// acceptance test: the same reads served through the executor —
// cold, warm, and fully concurrently — produce results identical to direct
// single-threaded tool.Map calls.
func TestServedIdenticalColdWarmConcurrent(t *testing.T) {
	pop := testPop(t, 8000, 4)
	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: 24, Length: 150, SubRate: 0.002, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultToolConfig(ToolGiraffe)
	snap, err := NewSnapshot("pop", pop.Graph, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Direct reference: a separately built tool, mapped serially.
	ref, err := pipeline.NewVgGiraffe(pop.Graph, cfg.K, cfg.W)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]pipeline.Result, len(reads))
	for i, r := range reads {
		want[i], _ = ref.Map(r.Seq, nil)
	}

	reg := &Registry{}
	if _, err := reg.Publish(snap); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{Workers: 4})
	defer s.Close()

	check := func(phase string, concurrent bool) {
		t.Helper()
		got := make([]pipeline.Result, len(reads))
		if concurrent {
			var wg sync.WaitGroup
			for i := range reads {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					resp, err := s.Map(context.Background(), reads[i].Seq)
					if err != nil {
						t.Errorf("%s read %d: %v", phase, i, err)
						return
					}
					got[i] = resp.Result
				}(i)
			}
			wg.Wait()
		} else {
			for i := range reads {
				resp, err := s.Map(context.Background(), reads[i].Seq)
				if err != nil {
					t.Fatalf("%s read %d: %v", phase, i, err)
				}
				got[i] = resp.Result
			}
		}
		for i := range reads {
			if got[i] != want[i] {
				t.Errorf("%s read %d: served %+v != direct %+v", phase, i, got[i], want[i])
			}
		}
	}
	check("cold", false)
	check("warm", false)
	check("concurrent", true)
}

// TestHotSwapDuringTraffic is the hot-swap acceptance test (run under -race
// in CI): a publisher swaps equivalent snapshots in continuously while
// closed-loop clients query, each query holding its own snapshot reference.
// No query may fail or be shed, every result must match the direct mapping,
// each response names a pair the publisher really published, a client never
// sees the generation go backwards, every swapped-out snapshot retires
// exactly once, and after Close only the current generation is live.
func TestHotSwapDuringTraffic(t *testing.T) {
	pop := testPop(t, 8000, 4)
	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: 12, Length: 150, SubRate: 0.002, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultToolConfig(ToolGiraffe)

	ref, err := pipeline.NewVgGiraffe(pop.Graph, cfg.K, cfg.W)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]pipeline.Result, len(reads))
	for i, r := range reads {
		want[i], _ = ref.Map(r.Seq, nil)
	}

	var retireMu sync.Mutex
	retired := map[uint64]int{}
	reg := &Registry{OnRetire: func(sn *Snapshot) {
		retireMu.Lock()
		retired[sn.Generation]++
		retireMu.Unlock()
	}}
	// publish installs a fresh snapshot over the same graph and tool config,
	// so identical reads must keep mapping identically; its ID names the
	// generation it expects, which is what clients check responses against.
	const swaps = 8
	publish := func(n int) error {
		snap, err := NewSnapshot(fmt.Sprintf("gen-%d", n), pop.Graph, cfg)
		if err != nil {
			return err
		}
		gen, err := reg.Publish(snap)
		if err == nil && gen != uint64(n) {
			err = fmt.Errorf("publication %d got generation %d", n, gen)
		}
		return err
	}
	if err := publish(1); err != nil {
		t.Fatal(err)
	}
	m := perf.NewMetrics()
	s := New(reg, Config{Workers: 4, Metrics: m})

	// Clients query until the publisher is done, then one more full pass.
	published := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lastGen uint64
			for last := false; !last; {
				select {
				case <-published:
					last = true
				default:
				}
				for i := range reads {
					resp, err := s.Map(context.Background(), reads[i].Seq)
					if err != nil {
						t.Errorf("client %d read %d: %v", c, i, err)
						return
					}
					if resp.Result != want[i] {
						t.Errorf("client %d read %d on gen %d: %+v != %+v",
							c, i, resp.Generation, resp.Result, want[i])
					}
					if resp.SnapshotID != fmt.Sprintf("gen-%d", resp.Generation) {
						t.Errorf("client %d: response pairs snapshot %q with generation %d",
							c, resp.SnapshotID, resp.Generation)
					}
					if resp.Generation < lastGen || resp.Generation > swaps+1 {
						t.Errorf("client %d: generation %d after %d (published 1..%d)",
							c, resp.Generation, lastGen, swaps+1)
					}
					lastGen = resp.Generation
				}
			}
			if lastGen != swaps+1 {
				t.Errorf("client %d ended on generation %d, want %d", c, lastGen, swaps+1)
			}
		}(c)
	}
	for n := 2; n <= swaps+1; n++ {
		if err := publish(n); err != nil {
			t.Error(err)
			break
		}
	}
	close(published)
	wg.Wait()
	s.Close()

	if shed := m.Counter("mapserve.shed_queue") + m.Counter("mapserve.shed_deadline"); shed != 0 {
		t.Errorf("%d queries shed during hot-swap traffic", shed)
	}
	for gen := uint64(1); gen <= swaps; gen++ {
		if retired[gen] != 1 {
			t.Errorf("generation %d retired %d times, want exactly once", gen, retired[gen])
		}
	}
	if retired[swaps+1] != 0 {
		t.Errorf("current generation %d retired", swaps+1)
	}
	live := reg.Stats()
	if len(live) != 1 || !live[0].Current || live[0].Generation != swaps+1 || live[0].InFlight != 0 {
		t.Errorf("live snapshots after Close: %+v, want only generation %d, current, idle", live, swaps+1)
	}
}
