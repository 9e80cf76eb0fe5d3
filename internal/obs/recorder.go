package obs

import (
	"sort"
	"sync"
	"time"
)

// SpanData is one immutable node of a completed trace tree — what the
// flight recorder retains and the /traces endpoint serves. Duration
// marshals as nanoseconds; TraceID is set on the root only, and nesting
// links each child to its parent.
type SpanData struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	TraceID  uint64        `json:"trace_id,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Error    string        `json:"error,omitempty"`
	Shed     bool          `json:"shed,omitempty"`
	Children []SpanData    `json:"children,omitempty"`
}

// Failed reports whether the trace (root) recorded an error or a shed.
func (d SpanData) Failed() bool { return d.Error != "" || d.Shed }

// errorCapacity bounds the recorder's shed/error exemplar list.
const errorCapacity = 32

// exemplar is one retained slowest-per-name trace stamped with when the
// recorder saw it, so stale records can age out.
type exemplar struct {
	d  SpanData
	at time.Time
}

// Recorder is the bounded flight recorder: a ring of the last N completed
// traces plus an always-kept exemplar set — the slowest trace per root name
// (endpoint) and the most recent shed/error traces. The ring answers "what
// just happened"; the exemplars answer "what was the worst, even if it
// scrolled out of the ring an hour ago".
//
// Two knobs keep it honest under soak load: sampleEvery ring-retains only
// 1-in-N successful traces (failed/shed traces always land), and maxAge
// expires a slowest exemplar once it has sat unchallenged past the horizon —
// the next trace of that name replaces it even if faster, so a pathological
// outlier from an hour-old chaos window stops shadowing current behaviour.
type Recorder struct {
	mu          sync.Mutex
	ring        []SpanData
	next        int
	filled      bool
	total       uint64
	sampleEvery int
	maxAge      time.Duration
	now         func() time.Time // injectable for aging tests
	slowest     map[string]exemplar
	errs        []SpanData
}

func newRecorder(cfg TracerConfig) *Recorder {
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = 256
	}
	return &Recorder{
		ring:        make([]SpanData, capacity),
		sampleEvery: cfg.SampleEvery,
		maxAge:      cfg.ExemplarMaxAge,
		now:         time.Now,
		slowest:     map[string]exemplar{},
	}
}

// add retains one completed trace. Nil-safe so a nil tracer's spans cost
// nothing.
func (r *Recorder) add(d SpanData) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	// 1-in-N sampling applies to the ring only, and only to successful
	// traces: exemplars and error retention below always see every trace.
	if r.sampleEvery <= 1 || d.Failed() || (r.total-1)%uint64(r.sampleEvery) == 0 {
		r.ring[r.next] = d
		r.next++
		if r.next == len(r.ring) {
			r.next = 0
			r.filled = true
		}
	}
	cur, ok := r.slowest[d.Name]
	stale := ok && r.maxAge > 0 && r.now().Sub(cur.at) > r.maxAge
	if !ok || stale || d.Duration > cur.d.Duration {
		r.slowest[d.Name] = exemplar{d: d, at: r.now()}
	}
	if d.Failed() {
		r.errs = append(r.errs, d)
		if len(r.errs) > errorCapacity {
			r.errs = r.errs[len(r.errs)-errorCapacity:]
		}
	}
}

// Total returns the number of traces ever completed (including those that
// have scrolled out of the ring).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Last returns up to n retained traces, most recent first.
func (r *Recorder) Last(n int) []SpanData {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.filled {
		size = len(r.ring)
	}
	if n > size {
		n = size
	}
	out := make([]SpanData, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.ring[(r.next-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Exemplars returns the always-kept set: the slowest trace per root name
// followed by the retained shed/error traces.
func (r *Recorder) Exemplars() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.slowest))
	for name := range r.slowest {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SpanData, 0, len(names)+len(r.errs))
	for _, name := range names {
		out = append(out, r.slowest[name].d)
	}
	return append(out, r.errs...)
}

// ByTraceID returns the retained trace with the given id — ring, slowest
// exemplars, and error exemplars are all searched (most recent ring entry
// wins on the impossible-in-practice case of a duplicate). ok=false when
// the id has scrolled out of every retention tier.
func (r *Recorder) ByTraceID(id uint64) (SpanData, bool) {
	if r == nil || id == 0 {
		return SpanData{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.filled {
		size = len(r.ring)
	}
	for i := 1; i <= size; i++ {
		d := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if d.TraceID == id {
			return d, true
		}
	}
	for _, e := range r.slowest {
		if e.d.TraceID == id {
			return e.d, true
		}
	}
	for i := len(r.errs) - 1; i >= 0; i-- {
		if r.errs[i].TraceID == id {
			return r.errs[i], true
		}
	}
	return SpanData{}, false
}

// Errors returns the retained shed/error traces, oldest first.
func (r *Recorder) Errors() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SpanData(nil), r.errs...)
}

// Slowest returns up to n distinct retained traces — ring and exemplars
// pooled — slowest first.
func (r *Recorder) Slowest(n int) []SpanData {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	pool := make([]SpanData, 0, len(r.ring)+len(r.slowest))
	size := r.next
	if r.filled {
		size = len(r.ring)
	}
	pool = append(pool, r.ring[:size]...)
	for _, e := range r.slowest {
		pool = append(pool, e.d)
	}
	r.mu.Unlock()
	if n > len(pool) {
		n = len(pool)
	}

	sort.SliceStable(pool, func(i, j int) bool { return pool[i].Duration > pool[j].Duration })
	type key struct {
		name  string
		start time.Time
	}
	seen := map[key]bool{}
	out := make([]SpanData, 0, n)
	for _, d := range pool {
		k := key{d.Name, d.Start}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
		if len(out) == n {
			break
		}
	}
	return out
}
