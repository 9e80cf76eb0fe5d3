package serve

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/gfa"
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

// testService returns a service preloaded with the catalog.
func testService(t testing.TB, cfg Config, names []string, seqs [][]byte) *Service {
	t.Helper()
	s := New(cfg)
	if err := s.RegisterAssemblies(names, seqs); err != nil {
		t.Fatal(err)
	}
	return s
}

func pggbRequest(cohort []string) Request {
	cfg := build.DefaultPGGBConfig()
	cfg.LayoutIterations = 0
	return Request{Tool: ToolPGGB, Cohort: cohort, PGGB: cfg}
}

// gfaBytes serializes a result graph for byte-level comparison.
func gfaBytes(t testing.TB, res *build.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gfa.Write(&buf, res.Graph); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheReuseExactPairCount is the serve-mode acceptance test: two
// sequential cohorts sharing k assemblies perform exactly C(n,2) − C(k,2)
// new pair matches on the second request.
func TestCacheReuseExactPairCount(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 7)
	s := testService(t, Config{Metrics: perf.NewMetrics()}, names, seqs)

	choose2 := func(n int) int { return n * (n - 1) / 2 }

	// First cohort: assemblies 0..4 (n = 5).
	first := names[:5]
	r1, err := s.Build(context.Background(), pggbRequest(first))
	if err != nil {
		t.Fatal(err)
	}
	if r1.PairMisses != choose2(5) || r1.PairHits != 0 {
		t.Fatalf("first request: %d misses / %d hits, want %d / 0",
			r1.PairMisses, r1.PairHits, choose2(5))
	}

	// Second cohort: assemblies 2..6 — shares k = 3 with the first.
	second := names[2:7]
	r2, err := s.Build(context.Background(), pggbRequest(second))
	if err != nil {
		t.Fatal(err)
	}
	wantMisses := choose2(5) - choose2(3)
	if r2.PairMisses != wantMisses || r2.PairHits != choose2(3) {
		t.Fatalf("second request: %d misses / %d hits, want %d / %d",
			r2.PairMisses, r2.PairHits, wantMisses, choose2(3))
	}

	hits, misses, _ := s.CacheCounters()
	if hits != int64(choose2(3)) || misses != int64(choose2(5)+wantMisses) {
		t.Fatalf("cache counters: hits=%d misses=%d", hits, misses)
	}
	if got := s.Metrics().Counters["serve.requests"]; got != 2 {
		t.Fatalf("serve.requests = %d, want 2", got)
	}
}

// TestCachedResultIdenticalToDirectPGGB checks that the serve-mode PGGB
// path (canonical pair cache + PGGBFromMatches) reproduces build.PGGB
// byte-for-byte on a name-sorted cohort, both on a cold and a warm cache.
func TestCachedResultIdenticalToDirectPGGB(t *testing.T) {
	names, seqs := testCatalog(t, 5000, 4)
	s := testService(t, Config{}, names, seqs)

	req := pggbRequest(names)
	direct, err := build.PGGB(context.Background(), names, seqs, req.PGGB, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := gfaBytes(t, direct)

	cold, err := s.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, cold.Result), want) {
		t.Fatal("cold-cache serve result differs from direct build.PGGB")
	}
	warm, err := s.Build(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PairHits != len(names)*(len(names)-1)/2 || warm.PairMisses != 0 {
		t.Fatalf("warm request not fully cached: %d hits / %d misses", warm.PairHits, warm.PairMisses)
	}
	if !bytes.Equal(gfaBytes(t, warm.Result), want) {
		t.Fatal("warm-cache serve result differs from direct build.PGGB")
	}
	if direct.Stats != cold.Result.Stats || direct.Stats != warm.Result.Stats {
		t.Fatalf("stats diverge:\ndirect %+v\ncold   %+v\nwarm   %+v",
			direct.Stats, cold.Result.Stats, warm.Result.Stats)
	}
}

// TestConcurrentOverlappingRequests is the concurrency acceptance test:
// ≥8 concurrent overlapping requests (run under -race in CI) must return
// graphs byte-identical to serial single-request builds.
func TestConcurrentOverlappingRequests(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 8)

	// Overlapping cohorts, some deliberately not name-sorted so the
	// canonical-orientation remap path is exercised.
	cohorts := [][]string{
		{names[0], names[1], names[2]},
		{names[1], names[2], names[3]},
		{names[3], names[2], names[1]}, // reversed ordering of the above
		{names[2], names[3], names[4]},
		{names[4], names[5], names[6]},
		{names[6], names[5], names[0]},
		{names[0], names[3], names[6]},
		{names[5], names[1], names[7], names[2]},
		{names[7], names[0], names[4]},
	}

	// Serial reference: a fresh service per request so nothing is shared.
	want := make([][]byte, len(cohorts))
	for i, cohort := range cohorts {
		s := testService(t, Config{Workers: 1}, names, seqs)
		req := pggbRequest(cohort)
		req.PGGB.Workers = 1
		resp, err := s.Build(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = gfaBytes(t, resp.Result)
	}

	// Concurrent: one shared service, every cohort in flight at once.
	s := testService(t, Config{Workers: 4, Metrics: perf.NewMetrics()}, names, seqs)
	got := make([][]byte, len(cohorts))
	errs := make([]error, len(cohorts))
	var wg sync.WaitGroup
	for i := range cohorts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Build(context.Background(), pggbRequest(cohorts[i]))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = gfaBytes(t, resp.Result)
		}(i)
	}
	wg.Wait()
	for i := range cohorts {
		if errs[i] != nil {
			t.Fatalf("cohort %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("cohort %d: concurrent result differs from serial build", i)
		}
	}
	if hits, _, _ := s.CacheCounters(); hits == 0 {
		t.Error("overlapping concurrent requests shared no pair results")
	}
	g := s.Metrics().Gauges["serve.inflight"]
	if g.Value != 0 {
		t.Errorf("inflight gauge did not return to zero: %d", g.Value)
	}
	if g.Watermark < 1 {
		t.Errorf("inflight watermark = %d, want ≥1", g.Watermark)
	}
}

// leaderGate parks a leader build inside OnResult, where it is still
// registered in flight, until release closes.
type leaderGate struct {
	entered chan struct{}
	release chan struct{}
}

func newLeaderGate() *leaderGate {
	return &leaderGate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *leaderGate) hold() {
	g.entered <- struct{}{}
	<-g.release
}

// joinWatch is a context that closes joined the first time Build selects on
// its Done channel: for a joiner, the moment it starts waiting on the leader.
type joinWatch struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (c *joinWatch) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// buildCoalesced builds req twice on s, whose OnResult calls g.hold: a
// leader, and once the leader is parked in OnResult, an identical request
// that must join it. The leader is released only after the joiner waits.
func buildCoalesced(t *testing.T, s *Service, g *leaderGate, req Request) (leader, joined *Response) {
	t.Helper()
	leaderDone := make(chan struct{})
	var leaderErr error
	go func() {
		defer close(leaderDone)
		leader, leaderErr = s.Build(context.Background(), req)
	}()
	<-g.entered
	jw := &joinWatch{Context: context.Background(), joined: make(chan struct{})}
	go func() {
		<-jw.joined
		close(g.release)
	}()
	joined, err := s.Build(jw, req)
	<-leaderDone
	if err != nil || leaderErr != nil {
		t.Fatalf("build errors: leader=%v joined=%v", leaderErr, err)
	}
	return leader, joined
}

// TestRequestCoalescing verifies identical in-flight requests share one
// execution.
func TestRequestCoalescing(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 4)
	m := perf.NewMetrics()
	g := newLeaderGate()
	s := testService(t, Config{Workers: 2, Metrics: m, OnResult: func(Request, *build.Result) { g.hold() }}, names, seqs)

	leader, joined := buildCoalesced(t, s, g, pggbRequest(names))
	if leader.Coalesced {
		t.Fatal("leader marked coalesced")
	}
	if !joined.Coalesced {
		t.Fatal("joined request not marked coalesced")
	}
	if joined.Result != leader.Result {
		t.Fatal("coalesced request did not share the leader's result")
	}
	if got := m.Counter("serve.coalesced"); got != 1 {
		t.Fatalf("serve.coalesced = %d, want 1", got)
	}
}

// TestCacheEviction verifies the LRU stays within its byte budget, counts
// evictions, and that evicted pairs recompute correctly.
func TestCacheEviction(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 6)
	// Capacity fits roughly one pair entry, so cohorts evict each other.
	const evictCap = 256
	s := testService(t, Config{CacheCapacity: evictCap, Metrics: perf.NewMetrics()}, names, seqs)

	a, b := names[:3], names[3:6]
	if _, err := s.Build(context.Background(), pggbRequest(a)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Build(context.Background(), pggbRequest(b)); err != nil {
		t.Fatal(err)
	}
	if _, _, evictions := s.CacheCounters(); evictions == 0 {
		t.Fatal("no evictions despite tiny capacity")
	}
	if _, bytes := s.CacheResident(); bytes > evictCap {
		t.Fatalf("resident %d bytes exceeds capacity %d", bytes, evictCap)
	}
	// A re-request still works (recomputing whatever was evicted) and
	// matches a fresh service's answer.
	again, err := s.Build(context.Background(), pggbRequest(a))
	if err != nil {
		t.Fatal(err)
	}
	fresh := testService(t, Config{}, names, seqs)
	ref, err := fresh.Build(context.Background(), pggbRequest(a))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, again.Result), gfaBytes(t, ref.Result)) {
		t.Fatal("post-eviction rebuild differs from fresh build")
	}
}

// TestRequestTimeoutAndCancel covers the context plumbing: an expired
// per-request timeout and a canceled caller context both abort the build.
func TestRequestTimeoutAndCancel(t *testing.T) {
	names, seqs := testCatalog(t, 12000, 6)
	s := testService(t, Config{}, names, seqs)

	req := pggbRequest(names)
	req.Timeout = time.Nanosecond
	if _, err := s.Build(context.Background(), req); err == nil {
		t.Fatal("nanosecond timeout did not abort the build")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Build(ctx, pggbRequest(names)); err == nil {
		t.Fatal("pre-canceled context did not abort the build")
	}

	mcReq := Request{Tool: ToolMC, Cohort: names, MC: build.DefaultMCConfig(), Timeout: time.Nanosecond}
	if _, err := s.Build(context.Background(), mcReq); err == nil {
		t.Fatal("nanosecond timeout did not abort the MC build")
	}

	// The service must still serve after aborted requests.
	ok := pggbRequest(names[:3])
	if _, err := s.Build(context.Background(), ok); err != nil {
		t.Fatalf("service wedged after aborted requests: %v", err)
	}
}

// TestMCRequests runs the Minigraph-Cactus tool through the service.
func TestMCRequests(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 4)
	s := testService(t, Config{Metrics: perf.NewMetrics()}, names, seqs)
	cfg := build.DefaultMCConfig()
	cfg.LayoutIterations = 0
	resp, err := s.Build(context.Background(), Request{Tool: ToolMC, Cohort: names, MC: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.Graph == nil {
		t.Fatal("MC request returned no graph")
	}
	if resp.PairHits != 0 || resp.PairMisses != 0 {
		t.Fatalf("MC request touched the pair cache: %d/%d", resp.PairHits, resp.PairMisses)
	}
	direct, err := build.MinigraphCactus(context.Background(), names, seqs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gfaBytes(t, resp.Result), gfaBytes(t, direct)) {
		t.Fatal("served MC result differs from direct build")
	}
}

// TestRequestValidation covers the request rejection paths.
func TestRequestValidation(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 3)
	s := testService(t, Config{}, names, seqs)
	cases := []Request{
		{Tool: "gfaffix", Cohort: names},                         // unknown tool
		pggbRequest(names[:1]),                                   // cohort too small
		pggbRequest([]string{names[0], names[0], names[1]}),      // repeated assembly
		pggbRequest([]string{names[0], names[1], "nonexistent"}), // unregistered
	}
	for i, req := range cases {
		if _, err := s.Build(context.Background(), req); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, req)
		}
	}
	if err := s.RegisterAssembly(names[0], []byte("ACGT")); err == nil {
		t.Error("duplicate assembly registration accepted")
	}
	if err := s.RegisterAssembly("x", nil); err == nil {
		t.Error("empty-sequence registration accepted")
	}
	if err := s.RegisterAssembly("a\tb", []byte("ACGT")); err == nil {
		t.Error("reserved-character name accepted")
	}
}

// TestOnResultHook verifies the build-completion hook fires once per leader
// execution with the finished result — including coalesced requests, which
// share one execution and so fire it once.
func TestOnResultHook(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 4)
	var mu sync.Mutex
	var fired []Request
	var gate *leaderGate // set before the coalesced phase
	cfg := Config{Workers: 2, OnResult: func(req Request, res *build.Result) {
		if res == nil || res.Graph == nil {
			t.Error("OnResult fired without a graph")
		}
		mu.Lock()
		fired = append(fired, req)
		mu.Unlock()
		if gate != nil {
			gate.hold()
		}
	}}
	s := testService(t, cfg, names, seqs)

	if _, err := s.Build(context.Background(), pggbRequest(names)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || len(fired[0].Cohort) != len(names) {
		t.Fatalf("after one build, hook fired %d times", len(fired))
	}

	// A failed build must not fire the hook.
	bad := pggbRequest(names)
	bad.Timeout = time.Nanosecond
	if _, err := s.Build(context.Background(), bad); err == nil {
		t.Fatal("nanosecond build did not fail")
	}
	if len(fired) != 1 {
		t.Fatalf("failed build fired the hook (%d fires)", len(fired))
	}

	// Leader + coalesced joiner: one execution, one fire.
	gate = newLeaderGate()
	if _, joined := buildCoalesced(t, s, gate, pggbRequest(names[:3])); !joined.Coalesced {
		t.Fatal("second request did not join the leader")
	}
	if len(fired) != 2 {
		t.Fatalf("coalesced pair fired the hook %d times total, want 2", len(fired))
	}
}

// TestMetricsRecorded spot-checks the service metric names the /metrics
// admin endpoint exports.
func TestMetricsRecorded(t *testing.T) {
	names, seqs := testCatalog(t, 4000, 3)
	m := perf.NewMetrics()
	s := testService(t, Config{Metrics: m}, names, seqs)
	if _, err := s.Build(context.Background(), pggbRequest(names)); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, counter := range []string{"serve.requests", "serve.pair_misses"} {
		if snap.Counters[counter] == 0 {
			t.Errorf("counter %s not recorded", counter)
		}
	}
	for _, lat := range []string{"serve.exec", "serve.queue_wait", "serve.stage.induction"} {
		if snap.Latencies[lat].Count == 0 {
			t.Errorf("latency %s not recorded", lat)
		}
	}
}
