package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pangenomicsbench/internal/perf"
)

// SnapshotInfo is one published query snapshot's liveness, as shown by the
// /snapshots endpoint: the mapserve registry reports each still-referenced
// generation, its refcount, and how many queries hold it in flight.
type SnapshotInfo struct {
	ID         string `json:"id"`
	Generation uint64 `json:"generation"`
	Refs       int64  `json:"refs"`
	InFlight   int64  `json:"in_flight"`
	Current    bool   `json:"current"`
}

// FleetNodeInfo is one construction-fleet node's registry state, as shown
// by the /fleet endpoint: liveness, heartbeat age, the key range of the
// canonical pair-hash space the node owns, and the last heartbeat's
// task/shard-cache counters (the per-shard cache hit ratio is
// CacheHits / (CacheHits + CacheMisses)).
type FleetNodeInfo struct {
	Name           string `json:"name"`
	Addr           string `json:"addr,omitempty"`
	Live           bool   `json:"live"`
	HeartbeatAgeMS int64  `json:"heartbeat_age_ms"`
	Range          string `json:"range"`
	Tasks          int64  `json:"tasks"`
	CacheHits      int64  `json:"cache_hits"`
	CacheMisses    int64  `json:"cache_misses"`
	CacheEntries   int    `json:"cache_entries"`
	CacheBytes     int    `json:"cache_bytes"`
	Assemblies     int    `json:"assemblies"`
	ConfigVersion  int    `json:"config_version"`
}

// ServerConfig wires the admin server's data sources. Every field is
// optional; endpoints with no source report an empty result.
type ServerConfig struct {
	// Metrics supplies the aggregate metric set behind /metrics.
	Metrics func() perf.MetricsSnapshot
	// Recorder supplies the flight recorder behind /traces.
	Recorder *Recorder
	// Snapshots supplies the registry state behind /snapshots.
	Snapshots func() []SnapshotInfo
	// Fleet supplies the construction-fleet node registry behind /fleet.
	Fleet func() []FleetNodeInfo
	// FederatedNodes, when non-nil, supplies per-node metric snapshots that
	// /metrics merges into the local set with `node` labels (see Federate) —
	// the coordinator wires this to its heartbeat-scraped worker snapshots.
	FederatedNodes func() []NodeMetrics
	// Health, when non-nil, gates /healthz: a returned error serves 503.
	Health func() error
	// EnableProfiling mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints can stall the process (CPU profile
	// holds the profiler for its whole duration) and belong behind a flag.
	EnableProfiling bool
}

// Server is the live admin/metrics endpoint: a stdlib net/http server
// exposing /metrics (Prometheus text), /traces (span trees or JSON lines),
// /snapshots (registry generations) and /healthz.
type Server struct {
	cfg ServerConfig
	mux *http.ServeMux

	srv *http.Server
	ln  net.Listener
}

// NewServer builds the admin server; Start binds and serves it.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/traces", s.handleTraces)
	s.mux.HandleFunc("/snapshots", s.handleSnapshots)
	s.mux.HandleFunc("/fleet", s.handleFleet)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.EnableProfiling {
		// Mounted explicitly (not via the package's DefaultServeMux side
		// effects) so profiling stays opt-in per server.
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's route mux (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (e.g. ":8080", "127.0.0.1:0") and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	// The timeouts match the fleet worker server. WriteTimeout must outlast
	// /debug/pprof/profile's default 30 s CPU capture. No handler reads a
	// request body, so there is no body limit to set.
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the server (no-op if never started).
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `pangenomicsbench admin endpoint
  /metrics    Prometheus text exposition of the service metric set (federated node-labeled series when fleet-wired)
  /traces     flight-recorder traces (?format=jsonl|tree, ?n=20, ?which=slow|recent|exemplars, ?min_dur=5ms, ?trace_id=<32hex> exact lookup)
  /snapshots  mapserve registry generations, refcounts, in-flight queries
  /fleet      construction-fleet node registry (liveness, key ranges, shard caches)
  /healthz    liveness
`)
	if s.cfg.EnableProfiling {
		fmt.Fprint(w, "  /debug/pprof/  continuous-profiling endpoints (profile, trace, heap, ...)\n")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap perf.MetricsSnapshot
	if s.cfg.Metrics != nil {
		snap = s.cfg.Metrics()
	}
	if s.cfg.FederatedNodes != nil {
		if nodes := s.cfg.FederatedNodes(); len(nodes) > 0 {
			snap = Federate(snap, nodes)
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, PromText(snap))
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("trace_id"); id != "" {
		d, ok := s.cfg.Recorder.ByTraceID(id)
		if !ok {
			http.Error(w, fmt.Sprintf("no retained trace with trace_id=%q", id), http.StatusNotFound)
			return
		}
		if format := r.URL.Query().Get("format"); format == "jsonl" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, d.JSONLine())
		} else {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, d.Tree())
		}
		return
	}
	n := 20
	if raw := r.URL.Query().Get("n"); raw != "" {
		if v, err := strconv.Atoi(raw); err == nil && v > 0 {
			n = v
		}
	}
	var minDur time.Duration
	if raw := r.URL.Query().Get("min_dur"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < 0 {
			http.Error(w, fmt.Sprintf("bad min_dur=%q (want a non-negative Go duration, e.g. 5ms)", raw), http.StatusBadRequest)
			return
		}
		minDur = d
	}
	var traces []SpanData
	switch which := r.URL.Query().Get("which"); which {
	case "", "slow":
		traces = s.cfg.Recorder.Slowest(n)
	case "recent":
		traces = s.cfg.Recorder.Last(n)
	case "exemplars":
		traces = s.cfg.Recorder.Exemplars()
	default:
		http.Error(w, fmt.Sprintf("unknown which=%q (want slow, recent or exemplars)", which), http.StatusBadRequest)
		return
	}
	if minDur > 0 {
		kept := traces[:0:len(traces)]
		for _, d := range traces {
			if d.Duration >= minDur {
				kept = append(kept, d)
			}
		}
		traces = kept
	}
	switch format := r.URL.Query().Get("format"); format {
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, d := range traces {
			fmt.Fprintln(w, d.JSONLine())
		}
	case "", "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "%d traces retained (%d completed total)\n\n",
			len(traces), s.cfg.Recorder.Total())
		for _, d := range traces {
			fmt.Fprintln(w, d.Tree())
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format=%q (want tree or jsonl)", format), http.StatusBadRequest)
	}
}

func (s *Server) handleSnapshots(w http.ResponseWriter, _ *http.Request) {
	infos := []SnapshotInfo{}
	if s.cfg.Snapshots != nil {
		infos = s.cfg.Snapshots()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(infos)
}

func (s *Server) handleFleet(w http.ResponseWriter, _ *http.Request) {
	infos := []FleetNodeInfo{}
	if s.cfg.Fleet != nil {
		infos = s.cfg.Fleet()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(infos)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Health != nil {
		if err := s.cfg.Health(); err != nil {
			http.Error(w, "unhealthy: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
