// Package obs is the observability substrate of the serve tiers: a
// request-scoped span tracer, a bounded flight recorder that retains
// completed traces and exemplars, and a live admin/metrics HTTP endpoint.
//
// The paper characterizes its workloads offline — per-stage timing
// breakdowns and distributions via VTune/Nsight (Fig. 5/6, Table 6) — but a
// serving system needs the same attribution live: *which* request, *which*
// snapshot generation, *which* pipeline stage made the tail bad. A Tracer
// turns each build request or mapped read into a tree of timed spans (a
// read: admission wait → snapshot acquire → kernel map; a build: admission
// wait → build, one child per construction stage); the Recorder keeps the
// last N trace trees plus an always-kept exemplar set (slowest per
// endpoint, shed/error traces); the Server exposes /metrics, /traces,
// /snapshots and /healthz over stdlib net/http.
//
// A nil *Tracer — and the nil *Span everything it hands out — is valid
// everywhere and records nothing, matching perf's nil-Probe rule, so the
// hot paths pay only a nil check (and zero allocations) when tracing is
// disabled.
package obs

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
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
}

// Tracer creates root spans and delivers completed traces to its flight
// recorder. A nil Tracer is a no-op.
type Tracer struct {
	rec *Recorder
	// lastID is the id of the most recent root: trace ids count up from 1
	// in start order, so 0 always means "untraced".
	lastID atomic.Uint64
}

// NewTracer returns a tracer with an attached flight recorder.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{rec: newRecorder(cfg)}
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
	s := &Span{tracer: t, d: SpanData{Name: name, TraceID: t.lastID.Add(1)}}
	// Stamped last: the span's own allocation (and any GC assist it draws)
	// happens before the request's clock starts, not inside it where no
	// child stage could account for it.
	s.d.Start = time.Now()
	return s
}

// Span is one timed node of a trace tree. It accumulates its own SpanData:
// attributes, and children in start order — a completed stage (Stage) is
// stored as a value, a running child (Child) as a placeholder that End
// fills from the child span. All methods are nil-receiver safe; mutations
// after End are ignored.
type Span struct {
	tracer *Tracer // set on the root only

	mu    sync.Mutex
	d     SpanData
	open  []openChild
	probe *perf.Probe
	ended bool
}

// openChild is a running child span and its slot in the parent's children.
type openChild struct {
	at   int
	span *Span
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.d.Name
}

// Child starts a child span (nil for a nil receiver).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{d: SpanData{Name: name, Start: time.Now()}}
	s.mu.Lock()
	if !s.ended {
		s.open = append(s.open, openChild{at: len(s.d.Children), span: c})
		s.d.Children = append(s.d.Children, SpanData{})
	}
	s.mu.Unlock()
	return c
}

// Stage records an already-completed child with explicit timing — the
// post-hoc form used when a stage's duration is known only after the fact
// (queue waits measured at dispatch, kernel StageTimes).
func (s *Span) Stage(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.d.Children = append(s.d.Children, SpanData{Name: name, Start: start, Duration: d})
	}
	s.mu.Unlock()
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.d.Attrs = append(s.d.Attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Set(key, strconv.FormatInt(v, 10))
}

// Error marks the span failed. Error traces are retained by the flight
// recorder's exemplar set.
func (s *Span) Error(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.d.Error = err.Error()
	}
	s.mu.Unlock()
}

// Shed marks the span's request load-shed (at admission or deadline), which
// also lands the trace in the recorder's exemplar set.
func (s *Span) Shed(reason string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.d.Shed = true
		s.d.Attrs = append(s.d.Attrs, Attr{Key: "shed", Value: reason})
	}
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

// End completes the span: it stamps the duration and fills each running
// child's slot with that child's data, after which the span's SpanData is
// immutable. Ending the root of a trace delivers the whole tree to the
// flight recorder; End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.d.Duration = time.Since(s.d.Start)
	if p := s.probe; p != nil {
		s.d.Attrs = append(s.d.Attrs,
			Attr{Key: "instructions", Value: strconv.FormatUint(p.Instructions(), 10)},
			Attr{Key: "loads", Value: strconv.FormatUint(p.Loads, 10)},
			Attr{Key: "stores", Value: strconv.FormatUint(p.Stores, 10)},
			Attr{Key: "mispredicts", Value: strconv.FormatUint(p.Mispredicts, 10)},
		)
	}
	for _, c := range s.open {
		s.d.Children[c.at] = c.span.Data()
	}
	s.open = nil
	s.ended = true
	d := s.d
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.rec.add(d)
	}
}

// Duration returns the span's completed duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Duration
}

// TraceID returns the id of the trace a root span starts — 1, 2, 3, … per
// tracer in start order. It is 0 for a nil span and for a child span.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.d.TraceID
}

// Data returns the span's tree. After End it is the immutable tree End
// built; before End it is a copy of the tree so far, with running children
// at zero duration. A nil span returns the zero SpanData.
func (s *Span) Data() SpanData {
	if s == nil {
		return SpanData{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.d
	}
	d := s.d
	d.Attrs = append([]Attr(nil), d.Attrs...)
	d.Children = append([]SpanData(nil), d.Children...)
	for _, c := range s.open {
		d.Children[c.at] = c.span.Data()
	}
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

// spanFromContext returns the span carried by ctx, or nil.
func spanFromContext(ctx context.Context) *Span {
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
	parent := spanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.Child(name)
	return context.WithValue(ctx, spanCtxKey{}, child), child
}

// AddStage records a completed stage on the span carried by ctx (no-op
// without one) — the hook the mapping kernels' stage timers call.
func AddStage(ctx context.Context, name string, start time.Time, d time.Duration) {
	spanFromContext(ctx).Stage(name, start, d)
}
