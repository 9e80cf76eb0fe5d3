// Package serve wraps the graph-construction pipelines (build.PGGB,
// build.MinigraphCactus) behind a request API — the serve-mode subsystem of
// the ROADMAP's production north star. A Service holds a catalog of named
// assemblies and executes build requests for cohorts drawn from it on a
// bounded worker pool, with three forms of work sharing:
//
//   - Per-pair caching: PGGB's all-vs-all matching runs as
//     build.CohortMatches over canonical (name-sorted) pairs whose results
//     live in a size-bounded build.PairCache, so repeated builds of
//     overlapping cohorts skip the redundant quadratic matching work.
//   - Pair single-flight: concurrent requests needing the same uncomputed
//     pair share one execution.
//   - Request coalescing: identical in-flight requests (same tool, cohort
//     and config) share one build.
//
// Every request is cancellable and deadline-bounded through a
// context.Context threaded into the pipelines, and service activity
// (requests, cache hits/misses, evictions, in-flight, per-stage latency) is
// recorded in a perf.Metrics set.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/fleet"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// Tool selects the construction pipeline of a request.
type Tool string

// Supported construction tools.
const (
	ToolPGGB Tool = "pggb"
	ToolMC   Tool = "mc"
)

// Config parameterizes a Service.
type Config struct {
	// Workers bounds concurrently executing builds; ≤0 uses GOMAXPROCS.
	Workers int
	// CacheCapacity bounds the pair-match cache in bytes; ≤0 uses 64 MiB.
	CacheCapacity int
	// DefaultTimeout bounds requests that don't set their own Timeout;
	// ≤0 means no default deadline.
	DefaultTimeout time.Duration
	// Metrics receives service counters and latencies; nil disables
	// recording (a fresh set is NOT created, matching perf's nil rule).
	Metrics *perf.Metrics
	// Tracer records one span tree per build request — admission wait,
	// execution, per-stage construction breakdown; nil disables tracing.
	// With a Fleet configured, worker-side spans link under the build trace
	// and ride back on the match responses, so one trace spans the whole
	// fleet.
	Tracer *obs.Tracer
	// Profiler, when set, captures a CPU profile around every build and
	// keeps the ones that ran past its threshold, named after the build's
	// trace id (the trace carries a cpu_profile attribute pointing at the
	// kept file). Nil disables continuous profiling.
	Profiler *obs.Profiler
	// OnResult, when set, observes every successfully built result (leader
	// executions only — coalesced joiners share the leader's result and do
	// not re-fire it). The query tier uses it to publish a finished
	// cohort rebuild as a fresh query snapshot. It runs synchronously on the
	// building goroutine, while the build slot is still held, so it must not
	// call back into Build.
	OnResult func(Request, *build.Result)
	// Journal, when set, write-ahead-logs every accepted leader request
	// (begin before the build slot is taken, done when the build completes),
	// so a restarted coordinator can Recover crash-interrupted cohorts.
	// Coalesced joiners are not journaled — they share the leader's record.
	Journal *Journal
	// Fleet, when set, routes PGGB pair matching through a multi-node
	// construction fleet instead of the in-process pair cache: each pair is
	// dispatched to the worker owning its canonical hash shard, and workers'
	// pair caches replace the local one. Set Fleet before registering
	// assemblies — RegisterAssembly forwards the catalog to the fleet so
	// workers can be config-pushed. Results are byte-identical to the local
	// path per the fleet determinism contract. MC requests are unaffected.
	Fleet *fleet.Coordinator
}

// Request is one graph-construction job: a tool, a cohort of registered
// assembly names, and the tool's config. Timeout (when > 0) bounds this
// request's execution.
type Request struct {
	Tool    Tool
	Cohort  []string
	PGGB    build.PGGBConfig
	MC      build.MCConfig
	Timeout time.Duration
}

// Response is the outcome of one request.
type Response struct {
	Result *build.Result
	// PairHits / PairMisses count this request's pair-match cache outcomes
	// (PGGB only; zero for MC).
	PairHits, PairMisses int
	// Coalesced reports that this request shared an identical in-flight
	// request's execution instead of running its own.
	Coalesced bool
	// QueueWait is the time spent waiting for a build slot; Exec the build
	// execution time.
	QueueWait, Exec time.Duration
	// TraceID identifies this request's trace ("" with tracing disabled);
	// /traces?trace_id= on the admin endpoint looks it up directly. A
	// coalesced response carries the leader's trace id — the trace that
	// actually holds the execution detail.
	TraceID string
}

// flight is one in-flight request execution that identical requests join.
type flight struct {
	done chan struct{}
	resp *Response
	err  error
}

// Service executes build requests over a catalog of named assemblies.
type Service struct {
	cfg     Config
	metrics *perf.Metrics
	tracer  *obs.Tracer
	cache   *build.PairCache
	slots   chan struct{}

	mu       sync.Mutex
	catalog  map[string][]byte
	inflight map[string]*flight

	chaos chaos
}

// New returns a Service with the given config.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 64 << 20
	}
	return &Service{
		cfg:      cfg,
		metrics:  cfg.Metrics,
		tracer:   cfg.Tracer,
		cache:    build.NewPairCache(cfg.CacheCapacity, cfg.Metrics, "serve.evictions"),
		slots:    make(chan struct{}, cfg.Workers),
		catalog:  map[string][]byte{},
		inflight: map[string]*flight{},
	}
}

// RegisterAssembly adds one named assembly to the catalog. Names must be
// unique and sequences non-empty.
func (s *Service) RegisterAssembly(name string, seq []byte) error {
	if name == "" {
		return fmt.Errorf("serve: empty assembly name")
	}
	if strings.ContainsAny(name, "\x00\n\t") {
		return fmt.Errorf("serve: assembly name %q contains reserved characters", name)
	}
	if len(seq) == 0 {
		return fmt.Errorf("serve: assembly %q has an empty sequence", name)
	}
	s.mu.Lock()
	if _, dup := s.catalog[name]; dup {
		s.mu.Unlock()
		return fmt.Errorf("serve: assembly %q already registered", name)
	}
	s.catalog[name] = seq
	s.mu.Unlock()
	if s.cfg.Fleet != nil {
		return s.cfg.Fleet.RegisterAssembly(name, seq)
	}
	return nil
}

// RegisterAssemblies registers parallel name/sequence slices.
func (s *Service) RegisterAssemblies(names []string, seqs [][]byte) error {
	if len(names) != len(seqs) {
		return fmt.Errorf("serve: %d names but %d sequences", len(names), len(seqs))
	}
	for i := range names {
		if err := s.RegisterAssembly(names[i], seqs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Metrics returns a snapshot of the service's metric set (empty when the
// service was configured without one).
func (s *Service) Metrics() perf.MetricsSnapshot { return s.metrics.Snapshot() }

// CacheCounters returns the lifetime pair-cache counters
// (hits, misses, evictions).
func (s *Service) CacheCounters() (hits, misses, evictions int64) {
	st := s.cache.Stats()
	return st.Hits, st.Misses, st.Evictions
}

// CacheResident returns the pair-cache occupancy (entries, bytes).
func (s *Service) CacheResident() (entries, bytes int) {
	st := s.cache.Stats()
	return st.Entries, st.Bytes
}

// resolve maps a cohort onto catalog sequences.
func (s *Service) resolve(cohort []string) ([][]byte, error) {
	if len(cohort) < 2 {
		return nil, fmt.Errorf("serve: cohort needs ≥2 assemblies (got %d)", len(cohort))
	}
	seen := map[string]bool{}
	seqs := make([][]byte, len(cohort))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, name := range cohort {
		if seen[name] {
			return nil, fmt.Errorf("serve: assembly %q repeated in cohort", name)
		}
		seen[name] = true
		seq, ok := s.catalog[name]
		if !ok {
			return nil, fmt.Errorf("serve: assembly %q not registered", name)
		}
		seqs[i] = seq
	}
	return seqs, nil
}

// fingerprint identifies a request for coalescing: tool, cohort and the
// tool's full config.
func (r Request) fingerprint() string {
	switch r.Tool {
	case ToolPGGB:
		return fmt.Sprintf("pggb\x00%s\x00%+v", strings.Join(r.Cohort, "\x00"), r.PGGB)
	case ToolMC:
		return fmt.Sprintf("mc\x00%s\x00%+v", strings.Join(r.Cohort, "\x00"), r.MC)
	}
	return fmt.Sprintf("%s\x00%s", r.Tool, strings.Join(r.Cohort, "\x00"))
}

// Build executes one request. Identical in-flight requests share a single
// execution (the joiner's Response reports Coalesced and shares the leader's
// Result). ctx cancels or deadline-bounds the request; req.Timeout (or the
// service default) adds a per-request deadline on top.
func (s *Service) Build(ctx context.Context, req Request) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if req.Tool != ToolPGGB && req.Tool != ToolMC {
		return nil, fmt.Errorf("serve: unknown tool %q", req.Tool)
	}
	if s.chaos.rejectBuilds.Load() {
		s.metrics.Add("serve.reject_chaos", 1)
		return nil, ErrChaosReject
	}
	seqs, err := s.resolve(req.Cohort)
	if err != nil {
		return nil, err
	}
	s.metrics.Add("serve.requests", 1)
	sp := s.tracer.StartRoot("serve.build")
	sp.Set("tool", string(req.Tool))
	sp.SetInt("cohort_size", int64(len(req.Cohort)))
	defer sp.End()

	// Request coalescing: join an identical in-flight execution if any.
	fp := req.fingerprint()
	s.mu.Lock()
	if f := s.inflight[fp]; f != nil {
		s.mu.Unlock()
		s.metrics.Add("serve.coalesced", 1)
		sp.Set("coalesced", "true")
		select {
		case <-f.done:
		case <-ctx.Done():
			sp.Error(ctx.Err())
			return nil, ctx.Err()
		}
		if f.err != nil {
			sp.Error(f.err)
			return nil, f.err
		}
		joined := *f.resp
		joined.Coalesced = true
		return &joined, nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[fp] = f
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.inflight, fp)
		s.mu.Unlock()
		close(f.done)
	}()

	// Write-ahead log the accepted leader request: begin survives a crash
	// mid-build, done retires it once the outcome (either way) is known.
	if s.cfg.Journal != nil {
		seq, err := s.cfg.Journal.begin(req)
		if err != nil {
			sp.Error(err)
			return nil, err
		}
		defer s.cfg.Journal.done(seq)
	}

	f.resp, f.err = s.execute(ctx, req, seqs, sp)
	sp.Error(f.err)
	return f.resp, f.err
}

// execute runs one non-coalesced request: waits for a build slot, applies
// the request deadline, and dispatches to the tool pipeline.
func (s *Service) execute(ctx context.Context, req Request, seqs [][]byte, sp *obs.Span) (*Response, error) {
	t0 := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.slots }()
	resp := &Response{QueueWait: time.Since(t0), TraceID: sp.TraceID().String()}
	s.metrics.Observe("serve.queue_wait", resp.QueueWait)
	sp.Stage("admission", t0, resp.QueueWait)

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	s.metrics.GaugeAdd("serve.inflight", 1)
	defer s.metrics.GaugeAdd("serve.inflight", -1)

	bs := sp.Child("build")
	// Thread the build span through ctx so downstream spans — fleet dispatch
	// children and the worker subtrees they graft on — parent under it.
	bctx := obs.ContextWithSpan(ctx, bs)
	stopProf := s.cfg.Profiler.Start()
	t1 := time.Now()
	var res *build.Result
	var err error
	switch req.Tool {
	case ToolPGGB:
		res, err = s.buildPGGB(bctx, req, seqs, resp)
	case ToolMC:
		mc := req.MC
		if mc.Workers <= 0 {
			// Fair-share default: an unset per-request pool takes this
			// request's slice of the cores, not the whole machine — with
			// cfg.Workers build slots running concurrently, each MC build's
			// chunk-mapping pool gets GOMAXPROCS/cfg.Workers goroutines
			// instead of every tenant oversubscribing to GOMAXPROCS.
			// Results are worker-count-invariant, so this only shifts time.
			mc.Workers = fairShareWorkers(runtime.GOMAXPROCS(0), s.cfg.Workers)
		}
		res, err = build.MinigraphCactus(bctx, req.Cohort, seqs, mc, nil)
	}
	resp.Exec = time.Since(t1)
	s.metrics.Observe("serve.exec", resp.Exec)
	// Slow-build profiling: the capture is kept only when the build ran past
	// the profiler's threshold; the trace links to the profile file.
	if path := stopProf(resp.Exec, sp.TraceID().String()); path != "" {
		sp.Set("cpu_profile", path)
		s.metrics.Add("serve.profiles_kept", 1)
	}
	if err != nil {
		s.metrics.Add("serve.errors", 1)
		bs.Error(err)
		bs.End()
		return nil, err
	}
	// Construction-stage children from the pipeline's breakdown: the stages
	// ran back to back inside the build span, so their starts chain from t1.
	bd := res.Breakdown
	stageStart := t1
	for _, st := range []struct {
		name string
		d    time.Duration
	}{
		{"alignment", bd.Alignment},
		{"induction", bd.Induction},
		{"polishing", bd.Polishing},
		{"layout", bd.Layout},
	} {
		bs.Stage(st.name, stageStart, st.d)
		stageStart = stageStart.Add(st.d)
	}
	bs.End()
	s.metrics.Observe("serve.stage.alignment", bd.Alignment)
	s.metrics.Observe("serve.stage.induction", bd.Induction)
	s.metrics.Observe("serve.stage.polishing", bd.Polishing)
	s.metrics.Observe("serve.stage.layout", bd.Layout)
	resp.Result = res
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(req, res)
	}
	return resp, nil
}

// fairShareWorkers splits procs cores across slots concurrent builds,
// rounding up so small machines still parallelize (never below 1).
func fairShareWorkers(procs, slots int) int {
	if slots < 1 {
		slots = 1
	}
	n := (procs + slots - 1) / slots
	if n < 1 {
		n = 1
	}
	return n
}

// buildPGGB runs the PGGB pipeline with the alignment stage routed through
// the pair cache, or through the fleet when one is configured (its workers'
// caches stand in for the local one). The resulting block set — and
// therefore the built graph — is byte-identical whether each pair was
// computed fresh or reused.
func (s *Service) buildPGGB(ctx context.Context, req Request, seqs [][]byte, resp *Response) (*build.Result, error) {
	cfg := req.PGGB
	pair := func(ctx context.Context, a, b string, seqA, seqB []byte) ([]build.MatchBlock, build.PairStats, bool, error) {
		if s.cfg.Fleet != nil {
			return s.cfg.Fleet.Match(ctx, a, b, cfg.K, cfg.W)
		}
		return s.cache.Get(ctx, a, b, cfg.K, cfg.W, func() ([]build.MatchBlock, build.PairStats, error) {
			return build.PairMatches(0, seqA, 1, seqB, cfg.K, cfg.W, nil)
		})
	}
	t0 := time.Now()
	blocks, agg, hits, err := build.CohortMatches(ctx, req.Cohort, seqs, cfg.Workers, pair)
	if err != nil {
		return nil, err
	}
	alignTime := time.Since(t0)
	resp.PairHits = hits
	resp.PairMisses = len(seqs)*(len(seqs)-1)/2 - hits
	if s.cfg.Fleet == nil {
		s.metrics.Add("serve.pair_hits", int64(resp.PairHits))
		s.metrics.Add("serve.pair_misses", int64(resp.PairMisses))
	}

	res, err := build.PGGBFromMatches(ctx, req.Cohort, seqs, blocks, agg, cfg, nil)
	if err != nil {
		return nil, err
	}
	res.Breakdown.Alignment = alignTime
	return res, nil
}
