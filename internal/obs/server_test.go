package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"pangenomicsbench/internal/perf"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServerScrape is the CI obs smoke test: it starts the admin server,
// scrapes /metrics and /healthz, verifies the Prometheus output parses with
// no duplicate metric names, and that counters are monotonic across two
// scrapes with traffic in between.
func TestServerScrape(t *testing.T) {
	m := perf.NewMetrics()
	m.Add("svc.requests", 3)
	m.GaugeAdd("svc.inflight", 1)
	m.Observe("svc.exec", 5*time.Millisecond)
	m.ObserveValue("svc.batch", 4)

	tr := NewTracer(TracerConfig{Metrics: m})
	sp := tr.StartRoot("svc.request")
	sp.Stage("admission", time.Now(), time.Millisecond)
	sp.End()

	srv := NewServer(ServerConfig{
		Metrics:  m.Snapshot,
		Recorder: tr.Recorder(),
		Snapshots: func() []SnapshotInfo {
			return []SnapshotInfo{{ID: "cohort-1", Generation: 3, Refs: 2, InFlight: 1, Current: true}}
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	code, body := get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	first := parseProm(t, body)
	if first["svc_requests_total"] != 3 {
		t.Fatalf("svc_requests_total = %v, want 3", first["svc_requests_total"])
	}

	// More traffic, then a second scrape: every counter must be monotonic.
	m.Add("svc.requests", 2)
	m.Add("svc.errors", 1)
	_, body = get(t, base+"/metrics")
	second := parseProm(t, body)
	for name, v := range first {
		if strings.HasSuffix(name, "_total") || strings.HasSuffix(name, "_count") {
			if second[name] < v {
				t.Errorf("counter %s went backwards: %v -> %v", name, v, second[name])
			}
		}
	}
	if second["svc_requests_total"] != 5 {
		t.Errorf("svc_requests_total after traffic = %v, want 5", second["svc_requests_total"])
	}

	// /traces: tree and jsonl forms.
	code, body = get(t, base+"/traces")
	if code != http.StatusOK || !strings.Contains(body, "svc.request") || !strings.Contains(body, "└─ admission") {
		t.Fatalf("/traces = %d:\n%s", code, body)
	}
	code, body = get(t, base+"/traces?format=jsonl&which=recent&n=5")
	if code != http.StatusOK {
		t.Fatalf("/traces jsonl = %d", code)
	}
	var d SpanData
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(body), "\n")[0]), &d); err != nil {
		t.Fatalf("jsonl line does not parse: %v\n%s", err, body)
	}
	if d.Name != "svc.request" || len(d.Children) != 1 {
		t.Fatalf("jsonl trace = %+v", d)
	}
	if code, _ := get(t, base+"/traces?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus format = %d, want 400", code)
	}

	// /snapshots.
	code, body = get(t, base+"/snapshots")
	if code != http.StatusOK {
		t.Fatalf("/snapshots = %d", code)
	}
	var infos []SnapshotInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("/snapshots does not parse: %v\n%s", err, body)
	}
	if len(infos) != 1 || infos[0].Generation != 3 || !infos[0].Current {
		t.Fatalf("/snapshots = %+v", infos)
	}

	// Index + 404.
	if code, body := get(t, base+"/"); code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index = %d %q", code, body)
	}
	if code, _ := get(t, base+"/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

// TestTracesMinDurFilter exercises the /traces?min_dur= duration filter:
// only traces whose root duration meets the threshold are served, zero
// matches is an empty (not error) result, and an unparseable or negative
// value is a 400.
func TestTracesMinDurFilter(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	rec := tr.Recorder()
	base0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i, dur := range []time.Duration{
		2 * time.Millisecond, 40 * time.Millisecond, 900 * time.Microsecond, 75 * time.Millisecond,
	} {
		rec.add(SpanData{Name: "svc.request", Start: base0.Add(time.Duration(i) * time.Second), Duration: dur})
	}

	srv := NewServer(ServerConfig{Recorder: rec})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	countLines := func(body string) int {
		body = strings.TrimSpace(body)
		if body == "" {
			return 0
		}
		return len(strings.Split(body, "\n"))
	}

	// No filter: all four traces.
	code, body := get(t, base+"/traces?format=jsonl&which=recent&n=10")
	if code != http.StatusOK || countLines(body) != 4 {
		t.Fatalf("unfiltered /traces = %d, %d lines:\n%s", code, countLines(body), body)
	}

	// min_dur=5ms keeps only the 40ms and 75ms traces.
	code, body = get(t, base+"/traces?format=jsonl&which=recent&n=10&min_dur=5ms")
	if code != http.StatusOK || countLines(body) != 2 {
		t.Fatalf("min_dur=5ms /traces = %d, %d lines:\n%s", code, countLines(body), body)
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var d SpanData
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("jsonl line does not parse: %v\n%s", err, line)
		}
		if d.Duration < 5*time.Millisecond {
			t.Errorf("trace below threshold leaked through: %v", d.Duration)
		}
	}

	// The filter composes with which=slow and the tree format, and the
	// boundary is inclusive (>=).
	code, body = get(t, base+"/traces?which=slow&min_dur=40ms")
	if code != http.StatusOK {
		t.Fatalf("tree min_dur /traces = %d", code)
	}
	if got := strings.Count(body, "svc.request"); got != 2 {
		t.Errorf("which=slow&min_dur=40ms rendered %d traces, want 2 (inclusive boundary):\n%s", got, body)
	}

	// n beyond every retained trace (up to the largest int) serves them
	// all instead of sizing a buffer by n.
	for _, which := range []string{"slow", "recent"} {
		code, body = get(t, base+"/traces?format=jsonl&which="+which+"&n=9223372036854775807")
		if code != http.StatusOK || countLines(body) != 4 {
			t.Fatalf("which=%s&n=MaxInt /traces = %d, %d lines:\n%s", which, code, countLines(body), body)
		}
	}

	// Above every trace: empty, still a 200.
	code, body = get(t, base+"/traces?format=jsonl&which=recent&min_dur=1h")
	if code != http.StatusOK || countLines(body) != 0 {
		t.Fatalf("min_dur=1h /traces = %d, %d lines", code, countLines(body))
	}

	// Bad values are rejected.
	for _, bad := range []string{"bogus", "5", "-3ms"} {
		if code, _ := get(t, base+"/traces?min_dur="+bad); code != http.StatusBadRequest {
			t.Errorf("min_dur=%s = %d, want 400", bad, code)
		}
	}
}

// FuzzTracesQuery drives the /traces query parsing with arbitrary n,
// min_dur, which, format and trace_id values against a recorder holding
// traces: the handler must never panic, and every answer is a 200, a 400
// (bad min_dur, which or format) or a 404 (unknown trace_id).
func FuzzTracesQuery(f *testing.F) {
	tr := NewTracer(TracerConfig{Capacity: 8})
	for i := 0; i < 12; i++ {
		sp := tr.StartRoot(fmt.Sprintf("svc.request-%d", i%3))
		sp.Stage("admission", time.Now(), time.Duration(i)*time.Millisecond)
		sp.End()
	}
	h := NewServer(ServerConfig{Recorder: tr.Recorder()}).Handler()
	id := tr.Recorder().Last(1)[0].TraceID

	f.Add("20", "", "", "", "")
	f.Add("9223372036854775807", "1ms", "slow", "jsonl", "")
	f.Add("-1", "-3ms", "recent", "tree", "")
	f.Add("5", "bogus", "exemplars", "bogus", "")
	f.Add("", "", "", "jsonl", id)
	f.Add("x", "1h", "nope", "", "00000000000000000000000000000000")
	f.Fuzz(func(t *testing.T, n, minDur, which, format, traceID string) {
		q := url.Values{}
		for k, v := range map[string]string{"n": n, "min_dur": minDur, "which": which, "format": format, "trace_id": traceID} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("/traces?%s = %d", q.Encode(), rec.Code)
		}
	})
}

// TestServerFleetEndpoint exercises the /fleet admin view: the registry
// source's node entries round-trip as JSON with liveness, heartbeat age,
// key ranges and cache counters intact.
func TestServerFleetEndpoint(t *testing.T) {
	srv := NewServer(ServerConfig{
		Fleet: func() []FleetNodeInfo {
			return []FleetNodeInfo{
				{Name: "a-node", Addr: "127.0.0.1:9001", Live: true, HeartbeatAgeMS: 120,
					Range: "[0000000000000000, 7fffffffffffffff]", Tasks: 42,
					CacheHits: 30, CacheMisses: 12, CacheEntries: 7, CacheBytes: 4096,
					Assemblies: 5, ConfigVersion: 5},
				{Name: "b-node", Live: false, HeartbeatAgeMS: 9000,
					Range: "[8000000000000000, ffffffffffffffff]"},
			}
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	code, body := get(t, base+"/fleet")
	if code != http.StatusOK {
		t.Fatalf("/fleet = %d", code)
	}
	var infos []FleetNodeInfo
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatalf("/fleet does not parse: %v\n%s", err, body)
	}
	if len(infos) != 2 {
		t.Fatalf("/fleet returned %d nodes, want 2", len(infos))
	}
	if infos[0].Name != "a-node" || !infos[0].Live || infos[0].Tasks != 42 || infos[0].CacheHits != 30 {
		t.Fatalf("/fleet live node = %+v", infos[0])
	}
	if infos[1].Live || infos[1].HeartbeatAgeMS != 9000 {
		t.Fatalf("/fleet dead node = %+v", infos[1])
	}
	// A dead node with no address omits the field entirely.
	if strings.Contains(body, `"addr": ""`) {
		t.Fatalf("/fleet serializes empty addr:\n%s", body)
	}
	// The index advertises the endpoint.
	if _, idx := get(t, base+"/"); !strings.Contains(idx, "/fleet") {
		t.Fatalf("index does not mention /fleet:\n%s", idx)
	}
}

func TestServerEmptySources(t *testing.T) {
	srv := NewServer(ServerConfig{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr
	for _, path := range []string{"/metrics", "/traces", "/snapshots", "/fleet", "/healthz"} {
		if code, _ := get(t, base+path); code != http.StatusOK {
			t.Errorf("%s with no sources = %d, want 200", path, code)
		}
	}
	for _, path := range []string{"/snapshots", "/fleet"} {
		if _, body := get(t, base+path); !strings.HasPrefix(strings.TrimSpace(body), "[") {
			t.Errorf("%s with no source = %q, want a JSON array", path, body)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(ServerConfig{})
	if err := srv.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServerTimeouts pins the admin server's connection bounds: every
// timeout is set, and a write may outlast /debug/pprof/profile's default
// 30 s CPU capture, or an on-demand profile would be cut off mid-stream.
func TestServerTimeouts(t *testing.T) {
	srv := NewServer(ServerConfig{EnableProfiling: true})
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := srv.srv
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("unbounded server: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	const pprofDefaultCapture = 30 * time.Second
	if hs.WriteTimeout <= pprofDefaultCapture {
		t.Fatalf("WriteTimeout %v does not outlast the %v pprof capture", hs.WriteTimeout, pprofDefaultCapture)
	}
}

// TestTracesTraceIDLookup exercises the exact-lookup path: a known id
// returns exactly that trace (tree or jsonl), an unknown id is a 404.
func TestTracesTraceIDLookup(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.StartRoot("fleet.build")
	sp.Child("fleet.dispatch").End()
	sp.End()
	id := sp.TraceID().String()
	// A second trace ensures the lookup is exact, not "most recent".
	other := tr.StartRoot("unrelated")
	other.End()

	srv := NewServer(ServerConfig{Recorder: tr.Recorder()})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	code, body := get(t, base+"/traces?trace_id="+id)
	if code != http.StatusOK {
		t.Fatalf("trace_id lookup = %d: %s", code, body)
	}
	if !strings.Contains(body, "fleet.build") || !strings.Contains(body, "fleet.dispatch") {
		t.Fatalf("tree missing spans:\n%s", body)
	}
	if strings.Contains(body, "unrelated") {
		t.Fatal("exact lookup leaked another trace")
	}

	code, body = get(t, base+"/traces?trace_id="+id+"&format=jsonl")
	if code != http.StatusOK {
		t.Fatalf("jsonl lookup = %d", code)
	}
	var d SpanData
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &d); err != nil {
		t.Fatalf("jsonl lookup not JSON: %v", err)
	}
	if d.TraceID != id || len(d.Children) != 1 {
		t.Fatalf("jsonl lookup returned %+v", d)
	}

	if code, _ = get(t, base+"/traces?trace_id=ffffffffffffffffffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown trace_id = %d, want 404", code)
	}
	// No recorder wired: any lookup is a 404, not a panic.
	bare := NewServer(ServerConfig{})
	addr2, err := bare.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if code, _ = get(t, "http://"+addr2+"/traces?trace_id="+id); code != http.StatusNotFound {
		t.Fatalf("recorder-less lookup = %d, want 404", code)
	}
}

// TestServerFederatedMetrics checks /metrics merges per-node snapshots under
// node labels while local series pass through unlabeled.
func TestServerFederatedMetrics(t *testing.T) {
	local := perf.NewMetrics()
	local.Add("fleet.tasks", 6)
	w1 := perf.NewMetrics()
	w1.Add("fleet.worker.tasks", 4)
	w2 := perf.NewMetrics()
	w2.Add("fleet.worker.tasks", 2)

	srv := NewServer(ServerConfig{
		Metrics: local.Snapshot,
		FederatedNodes: func() []NodeMetrics {
			return []NodeMetrics{
				{Node: "w1", Snapshot: w1.Snapshot()},
				{Node: "w2", Snapshot: w2.Snapshot()},
			}
		},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, body := get(t, "http://"+addr+"/metrics")
	series := parseProm(t, body)
	if series["fleet_tasks_total"] != 6 {
		t.Errorf("local series = %v, want 6", series["fleet_tasks_total"])
	}
	if series[`fleet_worker_tasks_total{node="w1"}`] != 4 ||
		series[`fleet_worker_tasks_total{node="w2"}`] != 2 {
		t.Errorf("federated node series missing:\n%s", body)
	}
}

// TestServerProfilingGate checks pprof endpoints exist only behind the flag.
func TestServerProfilingGate(t *testing.T) {
	off := NewServer(ServerConfig{})
	offAddr, err := off.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	if code, _ := get(t, "http://"+offAddr+"/debug/pprof/"); code != http.StatusNotFound {
		t.Fatalf("pprof reachable without the flag: %d", code)
	}

	on := NewServer(ServerConfig{EnableProfiling: true})
	onAddr, err := on.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	code, body := get(t, "http://"+onAddr+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index = %d:\n%s", code, body)
	}
	if code, _ := get(t, "http://"+onAddr+"/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof cmdline = %d", code)
	}
}
