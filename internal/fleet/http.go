package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// The worker daemon's wire protocol is JSON-over-HTTP endpoints — stdlib
// only, mirroring the node-registry-over-RPC shape of production daemon
// fleets:
//
//	POST /configure  ConfigPush   → 204
//	POST /match      MatchRequest → MatchResponse (409 unknown-assembly)
//	GET  /ping                    → PingReply
//	GET  /metrics                 → Prometheus text (?format=json: raw snapshot)
//	GET  /healthz                 → "ok"
//
// Errors are JSON {"error": ..., "code": ...}; code "unknown-assembly"
// maps back to ErrUnknownAssembly client-side so the coordinator can
// re-push its catalog and retry instead of declaring the node dead.
//
// /match participates in distributed tracing: a Traceparent request header
// (obs.Inject on the coordinator side) links the worker's span under the
// coordinator's build trace, and the completed worker subtree rides back in
// MatchResponse.Trace. /metrics is the federation scrape target: the
// coordinator polls it (JSON form) on the heartbeat tick and re-exposes
// every series node-labeled on its own admin endpoint.

// httpError is the wire form of a worker-side error.
type httpError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

const codeUnknownAssembly = "unknown-assembly"

// Request body limits; a larger body gets 413. The largest /match body any
// caller sends is two assembly names and two ints — under 100 bytes for the
// names gensim generates — so 64 KiB admits names of up to ~32 KiB. The
// largest /configure body is the whole catalog, its sequences base64'd in
// JSON (4/3 of the raw bytes): ~270 KB for serve-sim's default 10 × 20 kb
// cohort over a fleet. 64 MiB admits a ~48 MB catalog.
const (
	maxMatchBody     = 64 << 10
	maxConfigureBody = 64 << 20
)

// Handler exposes w over the fleet wire protocol.
func Handler(w *Worker) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/configure", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var push ConfigPush
		if !decodeBody(rw, r, maxConfigureBody, &push, w) {
			return
		}
		if err := w.Configure(push); err != nil {
			writeErr(rw, http.StatusBadRequest, err, "configure", w)
			return
		}
		rw.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/match", func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(rw, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req MatchRequest
		if !decodeBody(rw, r, maxMatchBody, &req, w) {
			return
		}
		ctx := r.Context()
		if sc, ok := obs.Extract(r.Header); ok {
			ctx = obs.ContextWithRemote(ctx, sc)
		}
		resp, err := w.Match(ctx, req)
		if err != nil {
			// Match fails only on what the request asked for: a
			// non-canonical pair, an invalid (k, w), an assembly the
			// catalog lacks, or a caller that went away.
			if errors.Is(err, ErrUnknownAssembly) {
				writeErr(rw, http.StatusConflict, err, codeUnknownAssembly, w)
			} else {
				writeErr(rw, http.StatusBadRequest, err, "match", w)
			}
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(resp)
	})
	mux.HandleFunc("/ping", func(rw http.ResponseWriter, r *http.Request) {
		reply := w.Ping()
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(reply)
	})
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		snap := w.MetricsSnapshot()
		if r.URL.Query().Get("format") == "json" {
			rw.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(rw).Encode(snap)
			return
		}
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(rw, obs.PromText(snap))
	})
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

// decodeBody decodes r's JSON body into v, reading at most limit bytes. On
// failure it serves 413 for an oversized body, 400 otherwise, and returns
// false.
func decodeBody(rw http.ResponseWriter, r *http.Request, limit int64, v any, w *Worker) bool {
	err := json.NewDecoder(http.MaxBytesReader(rw, r.Body, limit)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	writeErr(rw, status, err, "decode", w)
	return false
}

// writeErr serves one JSON error body, counting it under the worker's
// fleet.transport_errors{code=...} so wire failures that would otherwise
// vanish into coordinator retry logic stay visible on the federated scrape.
func writeErr(rw http.ResponseWriter, status int, err error, code string, w *Worker) {
	if code == "" {
		code = fmt.Sprintf("http-%d", status)
	}
	if w != nil {
		w.obsMu.RLock()
		m := w.metrics
		w.obsMu.RUnlock()
		m.Add(obs.WithLabel("fleet.transport_errors", "code", code), 1)
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(httpError{Error: err.Error(), Code: code})
}

// WorkerServer runs one worker daemon: a Worker behind Handler on a TCP
// listener (the pgbench fleet-worker process).
type WorkerServer struct {
	W   *Worker
	srv *http.Server
	ln  net.Listener
}

// NewWorkerServer wraps w; Start binds and serves it.
func NewWorkerServer(w *Worker) *WorkerServer { return &WorkerServer{W: w} }

// Start listens on addr (e.g. ":9001", "127.0.0.1:0") and serves in the
// background, returning the bound address.
func (s *WorkerServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	s.ln = ln
	// ReadTimeout admits a maxConfigureBody push at 2.3 MB/s or faster;
	// WriteTimeout bounds one /match, a cache-miss PairMatches included;
	// IdleTimeout drops keep-alive connections a coordinator abandoned.
	s.srv = &http.Server{
		Handler:           Handler(s.W),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the daemon (no-op if never started).
func (s *WorkerServer) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

// HTTPTransport talks the fleet wire protocol to a remote worker daemon.
// Outbound requests carry the caller's trace context as a Traceparent
// header (obs.Inject), so worker-side spans link under the dispatching
// build trace.
type HTTPTransport struct {
	base    string
	client  *http.Client
	metrics *perf.Metrics
}

// Dial returns a transport for the worker daemon at addr (host:port or a
// full http:// base URL). No connection is made until the first call.
func Dial(addr string) *HTTPTransport {
	base := addr
	if len(base) < 7 || base[:7] != "http://" {
		base = "http://" + base
	}
	return &HTTPTransport{base: base, client: &http.Client{}}
}

// Addr returns the daemon base URL this transport targets.
func (t *HTTPTransport) Addr() string { return t.base }

// SetMetrics wires the coordinator-side metric set; decode-side wire
// failures count under fleet.transport_errors{code=...}. Call before
// handing the transport to a coordinator.
func (t *HTTPTransport) SetMetrics(m *perf.Metrics) { t.metrics = m }

func (t *HTTPTransport) Configure(ctx context.Context, push ConfigPush) error {
	return t.post(ctx, "/configure", push, nil)
}

func (t *HTTPTransport) Match(ctx context.Context, req MatchRequest) (*MatchResponse, error) {
	var resp MatchResponse
	if err := t.post(ctx, "/match", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (t *HTTPTransport) Ping(ctx context.Context) (*PingReply, error) {
	var reply PingReply
	if err := t.get(ctx, "/ping", &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// Metrics scrapes the worker's metric snapshot — the federation source the
// coordinator polls on its heartbeat tick (see MetricsSource).
func (t *HTTPTransport) Metrics(ctx context.Context) (perf.MetricsSnapshot, error) {
	var snap perf.MetricsSnapshot
	if err := t.get(ctx, "/metrics?format=json", &snap); err != nil {
		return perf.MetricsSnapshot{}, err
	}
	return snap, nil
}

// get fetches one JSON endpoint into out.
func (t *HTTPTransport) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+path, nil)
	if err != nil {
		return err
	}
	res, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		return t.decodeErr(res)
	}
	return json.NewDecoder(res.Body).Decode(out)
}

func (t *HTTPTransport) Close() error {
	t.client.CloseIdleConnections()
	return nil
}

// post sends one JSON request and decodes the JSON reply into out (nil out
// expects an empty 2xx).
func (t *HTTPTransport) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	obs.Inject(ctx, req.Header)
	res, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode < 200 || res.StatusCode > 299 {
		return t.decodeErr(res)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, res.Body)
		return nil
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// decodeErr maps a non-2xx reply back onto the fleet error vocabulary and
// counts it under the coordinator-side fleet.transport_errors{code=...}
// series — the client half of the worker's writeErr accounting, so a wire
// error that melts into retry/reassignment logic still leaves a trace.
func (t *HTTPTransport) decodeErr(res *http.Response) error {
	var he httpError
	raw, _ := io.ReadAll(io.LimitReader(res.Body, 4096))
	ok := json.Unmarshal(raw, &he) == nil && he.Error != ""
	code := he.Code
	if !ok || code == "" {
		code = fmt.Sprintf("http-%d", res.StatusCode)
	}
	t.metrics.Add(obs.WithLabel("fleet.transport_errors", "code", code), 1)
	if ok {
		if he.Code == codeUnknownAssembly {
			return fmt.Errorf("%w (%s)", ErrUnknownAssembly, he.Error)
		}
		return fmt.Errorf("fleet: worker error (HTTP %d): %s", res.StatusCode, he.Error)
	}
	return fmt.Errorf("fleet: worker error (HTTP %d): %s", res.StatusCode, bytes.TrimSpace(raw))
}
