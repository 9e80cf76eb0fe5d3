// Package obs is the observability substrate of the serve tiers: a
// request-scoped span tracer, a bounded flight recorder that retains
// completed traces and exemplars, and a live admin/metrics HTTP endpoint.
//
// The paper characterizes its workloads offline — per-stage timing
// breakdowns and distributions via VTune/Nsight (Fig. 5/6, Table 6) — but a
// serving system needs the same attribution live: *which* request, *which*
// snapshot generation, *which* pipeline stage made the tail bad. A Tracer
// turns each build request or mapped read into a tree of timed spans
// (admission wait → batch assembly → snapshot acquire → kernel map →
// merge); the Recorder keeps the last N trace trees plus an always-kept
// exemplar set (slowest per endpoint, shed/error traces); the Server
// exposes /metrics, /traces, /snapshots and /healthz over stdlib net/http.
//
// A nil *Tracer — and the nil *Span everything it hands out — is valid
// everywhere and records nothing, matching perf's nil-Probe rule, so the
// hot paths pay only a nil check (and zero allocations) when tracing is
// disabled.
package obs

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pangenomicsbench/internal/perf"
)

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TracerConfig parameterizes a Tracer.
type TracerConfig struct {
	// Capacity bounds the flight recorder's ring of recent traces;
	// ≤0 uses 256.
	Capacity int
	// ErrorCapacity bounds the recorder's shed/error exemplar list;
	// ≤0 uses 32.
	ErrorCapacity int
	// SampleEvery keeps only 1-in-N successful traces in the recorder's
	// recent ring (failed/shed traces are always kept, and every trace still
	// challenges the slowest-per-name exemplars). ≤1 keeps all — the right
	// setting interactively; soak runs at thousands of queries/second set
	// this so the ring spans minutes instead of milliseconds.
	SampleEvery int
	// ExemplarMaxAge expires a slowest-per-name exemplar that has sat
	// unchallenged longer than this: the next trace of that name replaces it
	// even if faster. 0 retains exemplars forever.
	ExemplarMaxAge time.Duration
	// Metrics, when non-nil, receives one latency observation per completed
	// span under "span.<name>" — the bridge from traces to the aggregate
	// metric set the /metrics endpoint renders.
	Metrics *perf.Metrics
}

// Tracer creates root spans and delivers completed traces to its flight
// recorder. A nil Tracer is a no-op.
type Tracer struct {
	metrics *perf.Metrics
	rec     *Recorder
}

// NewTracer returns a tracer with an attached flight recorder.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{metrics: cfg.Metrics, rec: newRecorder(cfg)}
}

// Recorder returns the tracer's flight recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// StartRoot begins a new trace. The returned span must be End()ed exactly
// once; End delivers the completed tree to the flight recorder. A nil
// tracer returns a nil span, on which every method is a free no-op.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{name: name, tracer: t, id: newSpanID(), traceID: newTraceID()}
	s.root = s
	// Stamped last: the span's own allocation (and any GC assist it draws)
	// happens before the request's clock starts, not inside it where no
	// child stage could account for it.
	s.start = time.Now()
	return s
}

// Span is one timed node of a trace tree. All methods are nil-receiver
// safe; a span must not be mutated after End.
type Span struct {
	tracer   *Tracer // set on the root only
	root     *Span
	name     string
	start    time.Time
	id       SpanID
	traceID  TraceID // set on the root only
	parentID SpanID  // set on a linked root only (remote parent)

	mu       sync.Mutex
	dur      time.Duration
	attrs    []Attr
	children []*Span
	remote   []SpanData
	errMsg   string
	shed     bool
	ended    bool
	probe    *perf.Probe
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child starts a child span (nil for a nil receiver).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{root: s.root, name: name, start: time.Now(), id: newSpanID()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// Stage records an already-completed child span with explicit timing — the
// post-hoc form used when a stage's duration is known only after the fact
// (queue waits measured at dispatch, kernel StageTimes).
func (s *Span) Stage(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	c := &Span{root: s.root, name: name, start: start, dur: d, ended: true, id: newSpanID()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	s.root.observe(name, d)
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Set(key, fmt.Sprintf("%d", v))
}

// Error marks the span failed. Error traces are retained by the flight
// recorder's exemplar set.
func (s *Span) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// Shed marks the span's request load-shed (at admission or deadline), which
// also lands the trace in the recorder's exemplar set.
func (s *Span) Shed(reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.shed = true
	s.attrs = append(s.attrs, Attr{Key: "shed", Value: reason})
	s.mu.Unlock()
}

// AttachProbe associates a kernel perf.Probe with the span; its dynamic
// instruction counts are summarized into attributes at End.
func (s *Span) AttachProbe(p *perf.Probe) {
	if s == nil || p == nil {
		return
	}
	s.mu.Lock()
	s.probe = p
	s.mu.Unlock()
}

// End completes the span. Ending the root of a trace delivers the whole
// tree to the flight recorder; End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if s.probe != nil {
		s.attrs = append(s.attrs,
			Attr{Key: "instructions", Value: fmt.Sprintf("%d", s.probe.Instructions())},
			Attr{Key: "loads", Value: fmt.Sprintf("%d", s.probe.Loads)},
			Attr{Key: "stores", Value: fmt.Sprintf("%d", s.probe.Stores)},
			Attr{Key: "mispredicts", Value: fmt.Sprintf("%d", s.probe.Mispredicts)},
		)
	}
	dur := s.dur
	s.mu.Unlock()
	s.root.observe(s.name, dur)
	if s == s.root && s.tracer != nil {
		s.tracer.rec.add(s.snapshot())
	}
}

// Duration returns the span's completed duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dur
}

// observe forwards one completed span duration to the tracer's metric set.
// Called on the root span (which carries the tracer pointer).
func (s *Span) observe(name string, d time.Duration) {
	if s == nil || s.tracer == nil {
		return
	}
	s.tracer.metrics.Observe("span."+name, d)
}

// SpanContext returns the span's wire identity (zero for nil — so disabled
// tracing injects no headers).
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.root.traceID, SpanID: s.id}
}

// TraceID returns the id of the trace this span belongs to (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.root.traceID
}

// AttachRemote grafts a completed span subtree from another process under
// this span — the coordinator-side hook for worker trees piggybacked on RPC
// responses. The subtree is kept verbatim (it carries its own ids, stamped
// by the remote tracer); it renders after the span's local children.
func (s *Span) AttachRemote(d SpanData) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, d)
	s.mu.Unlock()
}

// Data returns the span's immutable snapshot. It is meant for a completed
// span (after End) — the form a worker ships back over the wire. A nil span
// returns the zero SpanData.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	return s.snapshot()
}

// snapshot converts the (completed) span tree to immutable SpanData.
func (s *Span) snapshot() SpanData {
	return s.snap(s.root.traceID, s.parentID)
}

func (s *Span) snap(trace TraceID, parent SpanID) SpanData {
	s.mu.Lock()
	d := SpanData{
		Name:     s.name,
		Start:    s.start,
		Duration: s.dur,
		TraceID:  trace.String(),
		SpanID:   s.id.String(),
		ParentID: parent.String(),
		Error:    s.errMsg,
		Shed:     s.shed,
	}
	if len(s.attrs) > 0 {
		d.Attrs = append([]Attr(nil), s.attrs...)
	}
	children := append([]*Span(nil), s.children...)
	remote := append([]SpanData(nil), s.remote...)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.snap(trace, s.id))
	}
	d.Children = append(d.Children, remote...)
	return d
}

// Context plumbing: spans ride the context the serve tiers already thread
// into the mapping kernels (pipeline.ContextTool.MapCtx), so kernels
// annotate whatever trace their caller is building without knowing about
// the serve tiers at all.

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp. A nil span returns ctx unchanged
// (so disabled tracing never allocates a context).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// StartSpan begins a child of the span carried by ctx and returns a context
// carrying the child. Without a span in ctx it returns (ctx, nil) — zero
// cost beyond the context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name)
	return context.WithValue(ctx, spanCtxKey{}, child), child
}

// AddStage records a completed stage on the span carried by ctx (no-op
// without one) — the hook the mapping kernels' stage timers call.
func AddStage(ctx context.Context, name string, start time.Time, d time.Duration) {
	if sp := SpanFromContext(ctx); sp != nil {
		sp.Stage(name, start, d)
	}
}
