package mapserve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
)

// Admission and lifecycle errors.
var (
	// ErrOverloaded sheds a query at admission: the bounded queue is full.
	ErrOverloaded = errors.New("mapserve: overloaded, query shed")
	// ErrNoSnapshot rejects queries before the first snapshot publication.
	ErrNoSnapshot = errors.New("mapserve: no snapshot published")
	// ErrClosed rejects queries after Close.
	ErrClosed = errors.New("mapserve: service closed")
)

// Config parameterizes a Service.
type Config struct {
	// Workers bounds concurrently executing queries; ≤0 uses GOMAXPROCS.
	Workers int
	// QueueDepth bounds admitted queries waiting for a worker; a full queue
	// sheds new queries with ErrOverloaded, so at most QueueDepth queries
	// wait while Workers execute. ≤0 uses 1024.
	QueueDepth int
	// Metrics receives service counters, latencies and the queue-depth
	// gauge; nil disables recording.
	Metrics *perf.Metrics
	// Tracer records one span tree per query — admission wait, snapshot
	// acquire, kernel map with per-stage breakdown — into its flight
	// recorder. nil disables tracing and adds zero allocations to the hot
	// path (the nil-Probe rule).
	Tracer *obs.Tracer
	// TraceProbes, when tracing is enabled, attaches a perf.Probe to each
	// traced kernel map span so traces also carry dynamic instruction
	// counts. Expensive (full cache/branch simulation per query) — meant
	// for targeted debugging, not steady-state serving.
	TraceProbes bool
}

// Response is the outcome of one mapped query.
type Response struct {
	Result pipeline.Result
	Stages pipeline.StageTimes
	// SnapshotID / Generation identify the snapshot that served the query.
	SnapshotID string
	Generation uint64
	// BatchSize is always 1: queries are dispatched one at a time. The field
	// outlives the micro-batcher only because benchmark/ still reads it;
	// Benchmark v2 (ROADMAP item 2) removes it.
	BatchSize int
	// QueueWait is time from admission to a worker taking the query; MapTime
	// the in-kernel mapping time.
	QueueWait, MapTime time.Duration
	// TraceID identifies this query's trace (0 with tracing disabled) —
	// the join key between flight-log events and /traces?trace_id=. Shed
	// and failed queries still return a TraceID-carrying response alongside
	// their error when tracing is on, since exactly those traces are the
	// ones the recorder always retains.
	TraceID uint64
}

// pending is one admitted query awaiting execution.
type pending struct {
	ctx  context.Context
	read []byte
	enq  time.Time
	span *obs.Span
	resp *Response
	err  error
	done chan struct{}
}

// Service is the read-mapping executor. Incoming queries are admitted into a
// bounded queue that a fixed pool of workers pulls from one query at a time.
// Each query acquires the registry's current snapshot for exactly as long as
// it maps, so a hot-swap is invisible to in-flight queries and a retired
// snapshot is pinned only by the queries still running on it.
type Service struct {
	cfg     Config
	metrics *perf.Metrics
	tracer  *obs.Tracer
	reg     *Registry

	// slots is the admission bound: a query holds one from admission until a
	// worker takes it, so queue (same capacity) never blocks a sender. It is
	// a semaphore of its own because the queue-depth gauge must rise only
	// after a slot is held and fall before it is given back — counted around
	// the queue's own send and receive, a query just taken and one just
	// admitted overlap and the gauge reads past QueueDepth.
	slots chan struct{}
	queue chan *pending
	stop  chan struct{}

	closeMu sync.RWMutex
	closed  bool

	// chaosShed, when set (SetChaosShed), sheds every new query at admission
	// — the fault-injection hook soak runs use to synthesize shed storms.
	chaosShed atomic.Bool

	workers sync.WaitGroup
}

// New starts a service mapping queries against reg's current snapshot.
// Callers publish snapshots into reg (before or after New; queries fail
// with ErrNoSnapshot until the first Publish) and must Close the service
// to stop its goroutines.
func New(reg *Registry, cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	s := &Service{
		cfg:     cfg,
		metrics: cfg.Metrics,
		tracer:  cfg.Tracer,
		reg:     reg,
		slots:   make(chan struct{}, cfg.QueueDepth),
		queue:   make(chan *pending, cfg.QueueDepth),
		stop:    make(chan struct{}),
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Map admits one read query and blocks until it is mapped, shed, or failed.
// ctx deadlines/cancellation are honored while the query waits in the queue
// and inside the mapping kernels (ContextTool.MapCtx).
func (s *Service) Map(ctx context.Context, read []byte) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(read) == 0 {
		return nil, errors.New("mapserve: empty read")
	}
	// enq is taken the instant the root span starts and the span is annotated
	// only afterwards, so the admission stage begins where the request does.
	sp := s.tracer.StartRoot("mapserve.query")
	p := &pending{ctx: ctx, read: read, enq: time.Now(), span: sp, done: make(chan struct{})}
	sp.SetInt("read_len", int64(len(read)))

	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		sp.Error(ErrClosed)
		sp.End()
		return nil, ErrClosed
	}
	s.metrics.Add("mapserve.queries", 1)
	if s.chaosShed.Load() {
		s.closeMu.RUnlock()
		s.metrics.Add("mapserve.shed_chaos", 1)
		sp.Shed("chaos")
		sp.Error(ErrOverloaded)
		sp.End()
		return errResp(sp), ErrOverloaded
	}
	select {
	case s.slots <- struct{}{}:
		s.metrics.GaugeAdd("mapserve.queue_depth", 1)
		s.queue <- p
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		s.metrics.Add("mapserve.shed_queue", 1)
		sp.Shed("queue")
		sp.Error(ErrOverloaded)
		sp.End()
		return errResp(sp), ErrOverloaded
	}

	<-p.done
	sp.End()
	if p.err != nil {
		return errResp(sp), p.err
	}
	return p.resp, nil
}

// errResp carries a failed query's trace id back to the caller — nil when
// tracing is disabled, preserving the historical nil-response contract.
func errResp(sp *obs.Span) *Response {
	if sp == nil {
		return nil
	}
	return &Response{TraceID: sp.TraceID()}
}

// worker maps queued queries one at a time. After Close it empties what was
// admitted before the stop without blocking: Close excludes new admissions
// first, so the queue can only shrink here.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		select {
		case p := <-s.queue:
			s.run(p)
		case <-s.stop:
			for {
				select {
				case p := <-s.queue:
					s.run(p)
				default:
					return
				}
			}
		}
	}
}

// run executes one query and answers it exactly once. The root span ends
// here, not after the caller wakes, so request latency excludes the client
// goroutine's wake-up delay and the span's children account for (nearly)
// all of it; Map's own End is idempotent. The same admission-to-answer
// latency is the mapserve.query series.
func (s *Service) run(p *pending) {
	s.metrics.GaugeAdd("mapserve.queue_depth", -1)
	<-s.slots
	turn := time.Now()
	wait := turn.Sub(p.enq)
	s.metrics.Observe("mapserve.queue_wait", wait)
	p.span.Stage("admission", p.enq, wait)

	if snap := s.reg.Acquire(); snap == nil {
		p.err = ErrNoSnapshot
		p.span.Error(p.err)
	} else {
		p.span.Stage("snapshot.acquire", turn, time.Since(turn))
		s.mapOn(snap, p, wait)
		snap.Release()
	}
	p.span.End()
	if s.metrics != nil {
		s.metrics.Observe("mapserve.query", time.Since(p.enq))
	}
	close(p.done)
}

// mapOn maps p against the snapshot it holds through the ctx-threaded MapCtx
// path: kernel stage timers annotate the map span live through the context,
// and TraceProbes can attach a per-query probe. A context that ended while
// the query was queued sheds it without mapping; one that ends inside the
// kernel stops it at its next loop boundary. Either way the query sheds with
// the deadline cause.
func (s *Service) mapOn(snap *Snapshot, p *pending, wait time.Duration) {
	if err := p.ctx.Err(); err != nil {
		s.failDeadline(p, nil, err)
		return
	}
	// The map span opens first and closes last: annotating the root and
	// allocating the response are the executor's own work, and inside the
	// span they are map self time rather than holes between a traced
	// query's stages.
	ms := p.span.Child("map")
	p.span.Set("snapshot", snap.ID)
	p.span.SetInt("generation", int64(snap.Generation))
	ctx := obs.ContextWithSpan(p.ctx, ms)
	var probe *perf.Probe
	if s.cfg.TraceProbes && ms != nil {
		probe = perf.NewProbe()
		ms.AttachProbe(probe)
	}
	resp := &Response{
		SnapshotID: snap.ID,
		Generation: snap.Generation,
		BatchSize:  1,
		QueueWait:  wait,
		TraceID:    p.span.TraceID(),
	}
	var err error
	t0 := time.Now()
	resp.Result, resp.Stages, err = snap.MapWithProbe(ctx, p.read, probe)
	resp.MapTime = time.Since(t0)
	if err != nil {
		s.failDeadline(p, ms, err)
		return
	}
	ms.End()
	s.metrics.Add("mapserve.mapped", 1)
	s.metrics.Observe("mapserve.map", resp.MapTime)
	s.metrics.Observe("mapserve.stage.seed", resp.Stages.Seed)
	s.metrics.Observe("mapserve.stage.chain", resp.Stages.Chain)
	s.metrics.Observe("mapserve.stage.filter", resp.Stages.Filter)
	s.metrics.Observe("mapserve.stage.align", resp.Stages.Align)
	p.resp = resp
}

// failDeadline sheds one query with the deadline cause: counters and
// shed/error span state. ms is the query's map span when the failure
// happened inside the kernel, nil when it never started.
func (s *Service) failDeadline(p *pending, ms *obs.Span, err error) {
	s.metrics.Add("mapserve.shed_deadline", 1)
	ms.Error(err)
	ms.End()
	p.span.Shed("deadline")
	p.span.Error(err)
	p.err = err
}

// Close stops admissions, drains already-admitted queries (every admitted
// query still gets an answer), and waits for the workers to exit.
func (s *Service) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	close(s.stop)
	s.workers.Wait()
}

// Metrics returns a snapshot of the service's metric set (empty when the
// service was configured without one).
func (s *Service) Metrics() perf.MetricsSnapshot { return s.metrics.Snapshot() }
