package obs

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("root")
	sc := sp.SpanContext()
	if !sc.Valid() {
		t.Fatalf("root span context invalid: %+v", sc)
	}
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("malformed traceparent %q", tp)
	}
	got, ok := ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("ParseTraceparent(%q) = %+v, %v; want %+v", tp, got, ok, sc)
	}
	sp.End()
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}}.Traceparent()
	bad := []string{
		"",
		"00-short-1",
		valid[:54],                          // truncated
		valid + "0",                         // too long
		"01" + valid[2:],                    // wrong version
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("z", 32) + valid[35:], // non-hex trace id
		"00-" + strings.Repeat("0", 32) + valid[35:], // all-zero trace id
		valid[:36] + strings.Repeat("0", 16) + "-01", // all-zero span id
	}
	for _, s := range bad {
		if sc, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted as %+v", s, sc)
		}
	}
	// Any flags byte is accepted (only version is pinned).
	if _, ok := ParseTraceparent(valid[:53] + "00"); !ok {
		t.Error("flags 00 rejected")
	}
}

// FuzzParseTraceparent: no input panics the parser, and whatever it
// accepts is a valid context that survives a render and re-parse.
func FuzzParseTraceparent(f *testing.F) {
	valid := SpanContext{TraceID: TraceID{1}, SpanID: SpanID{2}}.Traceparent()
	f.Add(valid)
	f.Add(valid[:53] + "00")
	f.Add(strings.ToUpper(valid))
	f.Add("00-" + strings.Repeat("0", 32) + valid[35:])
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as invalid %+v", s, sc)
		}
		tp := sc.Traceparent()
		if tp[:53] != strings.ToLower(s[:53]) {
			t.Fatalf("%q renders as %q", s, tp)
		}
		if again, ok := ParseTraceparent(tp); !ok || again != sc {
			t.Fatalf("%q: round trip %q gave %+v, %v", s, tp, again, ok)
		}
	})
}

func TestInjectExtract(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("client")
	ctx := ContextWithSpan(context.Background(), sp)

	h := http.Header{}
	Inject(ctx, h)
	sc, ok := Extract(h)
	if !ok {
		t.Fatalf("Extract failed on injected header %q", h.Get(TraceparentHeader))
	}
	if sc != sp.SpanContext() {
		t.Fatalf("extracted %+v, want %+v", sc, sp.SpanContext())
	}
	sp.End()

	// No span in ctx → no header written, and Extract refuses.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if h2.Get(TraceparentHeader) != "" {
		t.Fatalf("Inject without a span wrote %q", h2.Get(TraceparentHeader))
	}
	if _, ok := Extract(h2); ok {
		t.Fatal("Extract succeeded on an empty header set")
	}
}

func TestParentFromContextPrecedence(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("local")
	remote := SpanContext{TraceID: TraceID{9}, SpanID: SpanID{9}}

	// In-process span wins over a remote context (the loopback-transport
	// case, where both are present).
	ctx := ContextWithRemote(ContextWithSpan(context.Background(), sp), remote)
	if got := ParentFromContext(ctx); got != sp.SpanContext() {
		t.Fatalf("ParentFromContext = %+v, want in-process %+v", got, sp.SpanContext())
	}
	// Remote-only context resolves to the remote parent.
	if got := ParentFromContext(ContextWithRemote(context.Background(), remote)); got != remote {
		t.Fatalf("remote-only ParentFromContext = %+v, want %+v", got, remote)
	}
	// Neither → zero.
	if got := ParentFromContext(context.Background()); got.Valid() {
		t.Fatalf("empty ctx resolved parent %+v", got)
	}
	sp.End()
}

func TestStartLinked(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	parent := SpanContext{TraceID: TraceID{7, 7}, SpanID: SpanID{3, 3}}

	sp := tr.StartLinked("worker", parent)
	if got := sp.SpanContext().TraceID; got != parent.TraceID {
		t.Fatalf("linked span trace id %s, want parent's %s", got, parent.TraceID)
	}
	if sp.SpanContext().SpanID == parent.SpanID {
		t.Fatal("linked span reused the parent's span id")
	}
	sp.End()
	d := sp.Data()
	if d.TraceID != parent.TraceID.String() || d.ParentID != parent.SpanID.String() {
		t.Fatalf("linked SpanData ids = (%s parent %s), want (%s parent %s)",
			d.TraceID, d.ParentID, parent.TraceID, parent.SpanID)
	}

	// Invalid parent degrades to a fresh root trace.
	sp2 := tr.StartLinked("orphan", SpanContext{})
	if sp2.SpanContext().TraceID.IsZero() || sp2.SpanContext().TraceID == parent.TraceID {
		t.Fatalf("orphan trace id %s not freshly generated", sp2.SpanContext().TraceID)
	}
	sp2.End()

	// Nil tracer stays nil-safe.
	var nilT *Tracer
	if sp := nilT.StartLinked("x", parent); sp != nil {
		t.Fatal("nil tracer returned a non-nil linked span")
	}
}

func TestAttachRemoteGraftsSubtree(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.StartRoot("build")
	disp := root.Child("dispatch")

	// A "remote" worker subtree, linked under the dispatch span the way the
	// fleet coordinator grafts MatchResponse.Trace.
	wtr := NewTracer(TracerConfig{})
	wsp := wtr.StartLinked("worker.match", disp.SpanContext())
	wsp.Child("compute").End()
	wsp.End()
	disp.AttachRemote(wsp.Data())
	disp.End()
	root.End()

	d := root.Data()
	if len(d.Children) != 1 {
		t.Fatalf("root has %d children, want 1", len(d.Children))
	}
	dd := d.Children[0]
	if len(dd.Children) != 1 || dd.Children[0].Name != "worker.match" {
		t.Fatalf("dispatch children = %+v, want the grafted worker subtree", dd.Children)
	}
	w := dd.Children[0]
	if w.TraceID != root.TraceID().String() {
		t.Fatalf("grafted subtree trace id %s, want %s", w.TraceID, root.TraceID())
	}
	if w.ParentID != dd.SpanID {
		t.Fatalf("grafted subtree parent %s, want dispatch span %s", w.ParentID, dd.SpanID)
	}
	if len(w.Children) != 1 || w.Children[0].Name != "compute" {
		t.Fatalf("worker subtree children = %+v", w.Children)
	}
	// The rendered tree spans all three processes' spans.
	tree := d.Tree()
	for _, want := range []string{"build", "dispatch", "worker.match", "compute"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestRecorderByTraceID(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	var ids []string
	for i := 0; i < 3; i++ {
		sp := tr.StartRoot("q")
		ids = append(ids, sp.TraceID().String())
		sp.End()
	}
	for _, id := range ids {
		d, ok := tr.Recorder().ByTraceID(id)
		if !ok || d.TraceID != id {
			t.Fatalf("ByTraceID(%s) = %+v, %v", id, d.TraceID, ok)
		}
	}
	if _, ok := tr.Recorder().ByTraceID("ffffffffffffffffffffffffffffffff"); ok {
		t.Fatal("ByTraceID found a trace that was never recorded")
	}
	if _, ok := tr.Recorder().ByTraceID(""); ok {
		t.Fatal("ByTraceID matched the empty id")
	}
}

func TestNilSpanWireIdentity(t *testing.T) {
	var sp *Span
	if sc := sp.SpanContext(); sc.Valid() {
		t.Fatalf("nil span has a valid context %+v", sc)
	}
	if id := sp.TraceID(); !id.IsZero() {
		t.Fatalf("nil span trace id %s", id)
	}
	if d := sp.Data(); d.Name != "" || d.TraceID != "" {
		t.Fatalf("nil span Data = %+v", d)
	}
	sp.AttachRemote(SpanData{Name: "x"}) // must not panic
}

func TestIDGeneration(t *testing.T) {
	seen := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		id := newSpanID()
		if id.IsZero() {
			t.Fatal("generated a zero span id")
		}
		if seen[id] {
			t.Fatalf("span id collision at %d: %s", i, id)
		}
		seen[id] = true
	}
	if newTraceID() == newTraceID() {
		t.Fatal("consecutive trace ids collide")
	}
}
