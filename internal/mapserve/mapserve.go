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
	// Workers bounds concurrently executing batches; ≤0 uses GOMAXPROCS.
	Workers int
	// MaxBatch caps queries per micro-batch; ≤0 uses 32.
	MaxBatch int
	// BatchWait bounds how long a forming batch waits for more queries
	// after its first; ≤0 uses 2ms. A full batch dispatches immediately.
	BatchWait time.Duration
	// QueueDepth bounds queued-but-undispatched queries; a full queue sheds
	// new queries with ErrOverloaded. ≤0 uses 1024.
	QueueDepth int
	// Metrics receives service counters, latencies and the batch-size
	// histogram; nil disables recording.
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
	// BatchSize is the size of the micro-batch the query rode in.
	BatchSize int
	// QueueWait is time from admission to batch execution; MapTime the
	// in-kernel mapping time.
	QueueWait, MapTime time.Duration
	// TraceID identifies this query's trace ("" with tracing disabled) —
	// the join key between flight-log events and /traces?trace_id=. Shed
	// and failed queries still return a TraceID-carrying response alongside
	// their error when tracing is on, since exactly those traces are the
	// ones the recorder always retains.
	TraceID string
}

// pending is one admitted query awaiting execution.
type pending struct {
	ctx    context.Context
	read   []byte
	enq    time.Time
	wait   time.Duration // admission → execution turn, set by admitTurn
	mapped time.Time     // when runSerial returned, the start of batch.tail
	span   *obs.Span
	resp   *Response
	err    error
	done   chan struct{}
}

// Service is the batched read-mapping executor. Incoming queries are
// admitted into a bounded queue, micro-batched by count and max-wait
// deadline, and dispatched on a bounded worker pool. Each batch acquires the
// registry's current snapshot exactly once — amortizing snapshot/index
// access across the batch the way the paper's mapping tools amortize seeding
// — so a hot-swap between batches is invisible to in-flight queries.
type Service struct {
	cfg     Config
	metrics *perf.Metrics
	tracer  *obs.Tracer
	reg     *Registry

	queue   chan *pending
	batches chan []*pending
	stop    chan struct{}

	closeMu sync.RWMutex
	closed  bool

	// chaosShed, when set (SetChaosShed), sheds every new query at admission
	// — the fault-injection hook soak runs use to synthesize shed storms.
	chaosShed atomic.Bool

	dispatcherDone chan struct{}
	workers        sync.WaitGroup
}

// New starts a service mapping queries against reg's current snapshot.
// Callers publish snapshots into reg (before or after New; queries fail
// with ErrNoSnapshot until the first Publish) and must Close the service
// to stop its goroutines.
func New(reg *Registry, cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 32
	}
	if cfg.BatchWait <= 0 {
		cfg.BatchWait = 2 * time.Millisecond
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	s := &Service{
		cfg:            cfg,
		metrics:        cfg.Metrics,
		tracer:         cfg.Tracer,
		reg:            reg,
		queue:          make(chan *pending, cfg.QueueDepth),
		batches:        make(chan []*pending, cfg.Workers),
		stop:           make(chan struct{}),
		dispatcherDone: make(chan struct{}),
	}
	go s.dispatch()
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Registry returns the snapshot registry the service maps against.
func (s *Service) Registry() *Registry { return s.reg }

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
	sp := s.tracer.StartRoot("mapserve.query")
	sp.SetInt("read_len", int64(len(read)))
	p := &pending{ctx: ctx, read: read, enq: time.Now(), span: sp, done: make(chan struct{})}

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
	case s.queue <- p:
		s.metrics.GaugeAdd("mapserve.queue_depth", 1)
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
	if p.err != nil && p.resp == nil {
		return errResp(sp), p.err
	}
	return p.resp, p.err
}

// errResp carries a failed query's trace id back to the caller — nil when
// tracing is disabled, preserving the historical nil-response contract.
func errResp(sp *obs.Span) *Response {
	if sp == nil {
		return nil
	}
	return &Response{TraceID: sp.TraceID().String()}
}

// dispatch forms micro-batches: the first query of a batch starts a
// BatchWait timer, and the batch dispatches when it reaches MaxBatch or the
// timer fires, whichever comes first.
func (s *Service) dispatch() {
	defer close(s.dispatcherDone)
	defer close(s.batches)
	for {
		var first *pending
		select {
		case first = <-s.queue:
		case <-s.stop:
			s.drain()
			return
		}
		batch := append(make([]*pending, 0, s.cfg.MaxBatch), first)
		timer := time.NewTimer(s.cfg.BatchWait)
	fill:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case p := <-s.queue:
				batch = append(batch, p)
			case <-timer.C:
				break fill
			case <-s.stop:
				break fill
			}
		}
		timer.Stop()
		s.batches <- batch
	}
}

// drain flushes queries admitted before Close into final batches. Close
// excludes new admissions first, so the queue can only shrink here.
func (s *Service) drain() {
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	for {
		select {
		case p := <-s.queue:
			batch = append(batch, p)
			if len(batch) == s.cfg.MaxBatch {
				s.batches <- batch
				batch = make([]*pending, 0, s.cfg.MaxBatch)
			}
		default:
			if len(batch) > 0 {
				s.batches <- batch
			}
			return
		}
	}
}

// worker executes batches.
func (s *Service) worker() {
	defer s.workers.Done()
	for batch := range s.batches {
		s.runBatch(batch)
	}
}

// runBatch maps every query of one batch against a single snapshot
// acquisition. Queries whose context is already done are shed without
// mapping and answered at once; each survivor then maps in arrival order on
// the serial ctx-threaded path, so a context firing mid-batch sheds only its
// own queries (at their turn, or inside the kernel at its next loop
// boundary). The survivors answer together when the last has run — a batch
// is one unit of wake-ups, as it was one unit of dispatch; the wait shows in
// each trace as the batch.tail stage. Every pending's done channel closes
// exactly once, and the single snapshot reference is released when the
// whole batch has run.
func (s *Service) runBatch(batch []*pending) {
	s.metrics.Add("mapserve.batches", 1)
	s.metrics.ObserveValue("mapserve.batch_size", float64(len(batch)))

	acqStart := time.Now()
	snap := s.reg.Acquire()
	acqDur := time.Since(acqStart)
	if snap != nil {
		defer snap.Release()
	}

	run := batch[:0]
	for _, p := range batch {
		s.metrics.GaugeAdd("mapserve.queue_depth", -1)
		switch {
		case snap == nil:
			s.admitTurn(p, len(batch))
			p.span.Error(ErrNoSnapshot)
			p.err = ErrNoSnapshot
			answer(p)
		case p.ctx.Err() != nil:
			s.admitTurn(p, len(batch))
			s.failDeadline(p, nil, p.ctx.Err())
			answer(p)
		default:
			run = append(run, p)
		}
	}
	for _, p := range run {
		s.runSerial(snap, p, len(batch), acqStart, acqDur)
		p.mapped = time.Now()
	}
	end := time.Now()
	for _, p := range run {
		p.span.Stage("batch.tail", p.mapped, end.Sub(p.mapped))
		answer(p)
	}
}

// answer hands one query back to its caller. The root span ends here, not
// after the caller wakes, so request latency excludes the client
// goroutine's wake-up delay and the span's children account for (nearly)
// all of it; Map's own End is idempotent.
func answer(p *pending) {
	p.span.End()
	close(p.done)
}

// admitTurn records a query's turn-for-execution accounting: the admission
// trace stage covers enqueue → this query's turn (batch assembly plus any
// earlier queries of the batch), so a query's direct children sum to its
// request latency.
func (s *Service) admitTurn(p *pending, batchSize int) {
	p.wait = time.Since(p.enq)
	s.metrics.Observe("mapserve.queue_wait", p.wait)
	p.span.Stage("admission", p.enq, p.wait)
	p.span.SetInt("batch_size", int64(batchSize))
}

// failDeadline sheds one query with the deadline cause: counters and
// shed/error span state. ms is the query's map span when the failure
// happened inside (or around) the kernel, nil when it never started.
func (s *Service) failDeadline(p *pending, ms *obs.Span, err error) {
	s.metrics.Add("mapserve.shed_deadline", 1)
	ms.Error(err)
	ms.End()
	p.span.Shed("deadline")
	p.span.Error(err)
	p.err = err
}

// finish records one mapped query: success metrics and the response. mt is
// the measured wall time of the query's kernel call.
func (s *Service) finish(p *pending, snap *Snapshot, batchSize int, res pipeline.Result, stages pipeline.StageTimes, mt time.Duration) {
	s.metrics.Add("mapserve.mapped", 1)
	s.metrics.Observe("mapserve.map", mt)
	s.metrics.Observe("mapserve.stage.seed", stages.Seed)
	s.metrics.Observe("mapserve.stage.chain", stages.Chain)
	s.metrics.Observe("mapserve.stage.filter", stages.Filter)
	s.metrics.Observe("mapserve.stage.align", stages.Align)
	p.resp = &Response{
		Result:     res,
		Stages:     stages,
		SnapshotID: snap.ID,
		Generation: snap.Generation,
		BatchSize:  batchSize,
		QueueWait:  p.wait,
		MapTime:    mt,
		TraceID:    p.span.TraceID().String(),
	}
}

// runSerial maps one query through the ctx-threaded MapCtx path: kernel
// stage timers annotate the map span live through the context, and
// TraceProbes can attach a per-query probe.
func (s *Service) runSerial(snap *Snapshot, p *pending, batchSize int, acqStart time.Time, acqDur time.Duration) {
	s.admitTurn(p, batchSize)
	if err := p.ctx.Err(); err != nil {
		// Expired while an earlier query of this batch mapped.
		s.failDeadline(p, nil, err)
		return
	}
	p.span.Stage("snapshot.acquire", acqStart, acqDur)
	p.span.Set("snapshot", snap.ID)
	p.span.SetInt("generation", int64(snap.Generation))
	ms := p.span.Child("map")
	ctx := obs.ContextWithSpan(p.ctx, ms)
	var probe *perf.Probe
	if s.cfg.TraceProbes && ms != nil {
		probe = perf.NewProbe()
		ms.AttachProbe(probe)
	}
	t0 := time.Now()
	res, stages, err := snap.MapWithProbe(ctx, p.read, probe)
	mt := time.Since(t0)
	if err != nil {
		s.failDeadline(p, ms, err)
		return
	}
	ms.End()
	s.finish(p, snap, batchSize, res, stages, mt)
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
	<-s.dispatcherDone
	s.workers.Wait()
}

// Metrics returns a snapshot of the service's metric set (empty when the
// service was configured without one).
func (s *Service) Metrics() perf.MetricsSnapshot { return s.metrics.Snapshot() }
