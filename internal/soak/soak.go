// Package soak is the chaos/soak harness of the serving tiers: it replays a
// catalog scenario (internal/gensim.Scenario) against the full
// build-then-serve stack — construction service, snapshot registry,
// mapserve executor — for a configured duration, injecting deliberate
// faults mid-run (rebuild-and-publish hot-swaps, shed storms,
// kill-and-warm-restart of the query tier, build-tier outages) and asserting
// at the end that the system came back clean: no lost in-flight queries,
// queue gauges drained, watermarks bounded, no goroutine or heap leaks, and
// every repeated read mapped exactly as its original did.
//
// The paper characterizes kernels one workload at a time; a serving system
// additionally has to survive the workloads *changing shape under it*. A
// soak run is that experiment: scenario arrival curves decide when queries
// land, chaos events decide when the system is wounded, and the end-of-run
// report (obs.SoakReport) decides whether the run counts.
package soak

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/pipeline"
	"pangenomicsbench/internal/serve"
	"pangenomicsbench/internal/store"
)

// ChaosKind names one fault-injection event of a soak run.
type ChaosKind string

// Supported chaos kinds.
const (
	// ChaosSwap rebuilds the cohort; the build service's OnResult publishes
	// (and with a store persists) the rebuilt graph as a new snapshot — the
	// production hot-swap path, mid-traffic.
	ChaosSwap ChaosKind = "swap"
	// ChaosShed turns admission fault injection on for a short storm window
	// (Service.SetChaosShed).
	ChaosShed ChaosKind = "shed"
	// ChaosRestart kills the query tier and warm-restarts it from the
	// snapshot store (Registry.LoadLatest) — requires Config.StoreDir.
	ChaosRestart ChaosKind = "restart"
	// ChaosBuildReject takes the build tier down for a window
	// (serve.SetChaosRejectBuilds) while queries keep flowing.
	ChaosBuildReject ChaosKind = "build-reject"
)

// ParseChaos parses a comma-separated chaos list ("swap,restart").
func ParseChaos(s string) ([]ChaosKind, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []ChaosKind
	for _, f := range strings.Split(s, ",") {
		k := ChaosKind(strings.TrimSpace(f))
		switch k {
		case ChaosSwap, ChaosShed, ChaosRestart, ChaosBuildReject:
			out = append(out, k)
		default:
			return nil, fmt.Errorf("soak: unknown chaos kind %q (want swap, shed, restart or build-reject)", f)
		}
	}
	return out, nil
}

// Fixed observation settings of a soak run.
const (
	// samplePeriod spaces the sink's periodic samples.
	samplePeriod = time.Second
	// traceSampleEvery is the run-private tracer's 1-in-N ring sampling
	// (obs.TracerConfig): a soak run completes far more traces than any
	// ring holds.
	traceSampleEvery = 8
)

// Config parameterizes one soak run.
type Config struct {
	// Scenario shapes the population, query trace and arrival curve.
	Scenario gensim.Scenario
	// RefLen / Haps / Seed size the simulated population; ≤0 uses 20000/5/42.
	RefLen, Haps int
	Seed         int64
	// Duration bounds the replay; ≤0 uses 10s.
	Duration time.Duration
	// Clients is the query worker fan-in; ≤0 uses 8.
	Clients int
	// Tool selects the mapping tool of published snapshots (zero value uses
	// giraffe defaults).
	Tool mapserve.ToolConfig
	// Workers / QueueDepth parameterize the mapserve executor exactly as
	// mapserve.Config does (zero = that package's defaults, except
	// QueueDepth which uses 256 so watermark assertions bite at soak scale).
	Workers    int
	QueueDepth int
	// Chaos lists the fault injections, fired in order at even fractions of
	// Duration.
	Chaos []ChaosKind
	// StoreDir persists published snapshots and is required by ChaosRestart.
	StoreDir string
	// Sink, when non-nil, receives structured JSONL records: samples every
	// samplePeriod, each chaos event, and the final report.
	Sink *obs.JSONLSink
	// MaxShedRate is the organic (non-chaos) shed-rate ceiling the final
	// report asserts; ≤0 uses 0.05.
	MaxShedRate float64
	// Metrics / Tracer, when non-nil, are used instead of run-private ones —
	// the hook that lets a caller expose the run on a live admin endpoint.
	// A caller-provided Tracer keeps its own sampling config; the
	// run-private one keeps 1 in traceSampleEvery traces.
	Metrics *perf.Metrics
	Tracer  *obs.Tracer
	// Out receives human-readable progress lines; nil discards them.
	Out io.Writer
}

// Result summarizes one completed soak run.
type Result struct {
	Issued, Mapped, Shed, Failed, Lost int64
	Swaps, Restarts, Storms, Rejects   int
	Generations                        uint64
	Wall                               time.Duration
	Report                             obs.SoakReport
	Metrics                            perf.MetricsSnapshot

	repeats repeatStats
}

// served is one replayed query's outcome, kept for the repeat-identical
// check: the result and the snapshot that answered it.
type served struct {
	mapped     bool
	result     pipeline.Result
	snapshotID string
	generation uint64
}

// repeatStats tallies the repeat-identical check: repeat/original pairs
// compared, how many of those two different snapshots answered, and how
// many mapped differently.
type repeatStats struct {
	verified, crossSnapshot, mismatches int
}

// compareRepeats compares every repeat query of trace (Repeat ≥ 0) with the
// query it re-issues. A pair counts only when both sides mapped; a repeat
// whose original (or itself) was shed, failed or never issued is skipped.
// out is indexed like trace and must only be read once every worker that
// wrote it has exited.
func compareRepeats(trace []gensim.ReadQuery, out []served) repeatStats {
	var st repeatStats
	for qi, q := range trace {
		if q.Repeat < 0 || qi >= len(out) {
			continue
		}
		rep, orig := out[qi], out[q.Repeat]
		if !rep.mapped || !orig.mapped {
			continue
		}
		st.verified++
		if rep.snapshotID != orig.snapshotID || rep.generation != orig.generation {
			st.crossSnapshot++
		}
		if rep.result != orig.result {
			st.mismatches++
		}
	}
	return st
}

// report adds the repeat-identical check to r.
func (st repeatStats) report(r *obs.SoakReport) {
	r.Add("repeat-identical", st.mismatches == 0,
		"%d repeat pairs verified, %d served by two snapshots, %d mismatches",
		st.verified, st.crossSnapshot, st.mismatches)
}

// chaosEvent is one scheduled injection.
type chaosEvent struct {
	kind ChaosKind
	at   time.Duration
}

// Run executes one soak run. It returns an error only for setup failures
// (bad config, the initial build failing); assertion outcomes land in
// Result.Report, and the caller decides what a failed check is worth.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.RefLen <= 0 {
		cfg.RefLen = 20_000
	}
	if cfg.Haps <= 0 {
		cfg.Haps = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Tool.Kind == "" {
		cfg.Tool = mapserve.DefaultToolConfig(mapserve.ToolGiraffe)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxShedRate <= 0 {
		cfg.MaxShedRate = 0.05
	}
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	for _, k := range cfg.Chaos {
		if k == ChaosRestart && cfg.StoreDir == "" {
			return nil, fmt.Errorf("soak: chaos %q needs StoreDir — a warm restart reloads the last persisted generation", k)
		}
	}
	sc := cfg.Scenario

	// Workload: scenario-shaped population, cyclic query trace, arrival curve.
	gcfg := gensim.DefaultConfig()
	gcfg.RefLen = cfg.RefLen
	gcfg.Haplotypes = cfg.Haps
	gcfg.Seed = cfg.Seed
	pop, err := gensim.Simulate(sc.PopConfig(gcfg))
	if err != nil {
		return nil, err
	}
	arrivals, err := planArrivals(sc, cfg.Duration, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt := sc.ReadTraceConfig(gensim.DefaultReadTraceConfig())
	rt.Queries = len(arrivals)
	rt.Clients = cfg.Clients
	rt.Seed = cfg.Seed
	trace, err := pop.ReadQueryTrace(rt)
	if err != nil {
		return nil, err
	}

	// Stack: builder → registry (+ optional store persistence) → executor.
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = perf.NewMetrics()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(obs.TracerConfig{
			Capacity:       512,
			SampleEvery:    traceSampleEvery,
			ExemplarMaxAge: time.Minute,
		})
	}
	var stMu sync.RWMutex
	reg := &mapserve.Registry{}
	var svc *mapserve.Service
	curReg := func() *mapserve.Registry { stMu.RLock(); defer stMu.RUnlock(); return reg }
	curSvc := func() *mapserve.Service { stMu.RLock(); defer stMu.RUnlock(); return svc }

	var sdir *store.Dir
	var persister *mapserve.Persister
	if cfg.StoreDir != "" {
		if sdir, err = store.Open(cfg.StoreDir, store.Options{}); err != nil {
			return nil, err
		}
		persister = mapserve.NewPersister(sdir, metrics)
	}

	names, seqs := pop.AssemblyView()

	var snapSeq uint64
	var publishErr error
	var publishMu sync.Mutex
	// takePublishErr returns and clears the last OnResult publish failure.
	takePublishErr := func() error {
		publishMu.Lock()
		defer publishMu.Unlock()
		err := publishErr
		publishErr = nil
		return err
	}
	builder := serve.New(serve.Config{
		Metrics: metrics,
		Tracer:  tracer,
		OnResult: func(req serve.Request, res *build.Result) {
			n := atomic.AddUint64(&snapSeq, 1)
			snap, err := mapserve.SnapshotFromBuild(fmt.Sprintf("cohort-%d", n), res, cfg.Tool)
			if err == nil {
				_, err = curReg().Publish(snap)
			}
			if err == nil && persister != nil {
				_, _, err = persister.Save(snap)
			}
			if err != nil {
				publishMu.Lock()
				publishErr = err
				publishMu.Unlock()
			}
		},
	})
	if err := builder.RegisterAssemblies(names, seqs); err != nil {
		return nil, err
	}
	cohort := serve.Request{Tool: serve.ToolPGGB, Cohort: names, PGGB: build.DefaultPGGBConfig(), MC: build.DefaultMCConfig()}
	t0 := time.Now()
	first, err := builder.Build(ctx, cohort)
	if err != nil {
		return nil, fmt.Errorf("soak: initial cohort build: %w", err)
	}
	cfg.Sink.Emit("build", map[string]any{
		"event":    "initial",
		"build_ms": time.Since(t0).Milliseconds(),
		"trace_id": first.TraceID,
	})
	if err := takePublishErr(); err != nil {
		return nil, fmt.Errorf("soak: snapshot publish: %w", err)
	}
	fmt.Fprintf(out, "soak[%s]: cohort built and published in %v; replaying %d planned queries for %v (chaos: %v)\n",
		sc.Name, time.Since(t0).Round(time.Millisecond), len(trace), cfg.Duration, cfg.Chaos)

	mapCfg := mapserve.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		Metrics:    metrics,
		Tracer:     tracer,
	}
	svc = mapserve.New(reg, mapCfg)
	closed := false
	defer func() {
		if !closed {
			curSvc().Close()
		}
	}()

	// Leak baselines, taken with the full stack up but no traffic yet.
	goroutineBase := runtime.NumGoroutine()
	heapBase := obs.HeapBaseline()

	res := &Result{}
	var issued, mapped, shed, failed int64

	// Chaos scheduler: events fire at even fractions of the duration, in
	// the order configured.
	events := make([]chaosEvent, 0, len(cfg.Chaos))
	for i, k := range cfg.Chaos {
		at := cfg.Duration * time.Duration(i+1) / time.Duration(len(cfg.Chaos)+1)
		events = append(events, chaosEvent{kind: k, at: at})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	stormLen := cfg.Duration / 20
	if stormLen < 100*time.Millisecond {
		stormLen = 100 * time.Millisecond
	}

	replayStart := time.Now()
	stopSampler := make(chan struct{})
	var bg sync.WaitGroup

	// Periodic JSONL samples: the soak run's flight log.
	bg.Add(1)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				snap := metrics.Snapshot()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				cfg.Sink.Emit("sample", map[string]any{
					"elapsed_ms":  time.Since(replayStart).Milliseconds(),
					"issued":      atomic.LoadInt64(&issued),
					"mapped":      atomic.LoadInt64(&mapped),
					"shed":        atomic.LoadInt64(&shed),
					"failed":      atomic.LoadInt64(&failed),
					"queue_depth": snap.Gauges["mapserve.queue_depth"].Value,
					"goroutines":  runtime.NumGoroutine(),
					"heap_bytes":  ms.HeapAlloc,
				})
			}
		}
	}()

	// Chaos driver.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for _, ev := range events {
			select {
			case <-time.After(time.Until(replayStart.Add(ev.at))):
			case <-ctx.Done():
				return
			}
			elapsed := time.Since(replayStart).Round(time.Millisecond)
			switch ev.kind {
			case ChaosSwap:
				st0 := time.Now()
				resp, err := builder.Build(ctx, cohort)
				if err == nil {
					err = takePublishErr()
				}
				if err != nil {
					fmt.Fprintf(out, "soak: swap rebuild failed: %v\n", err)
					continue
				}
				gen := curReg().Generation()
				res.Swaps++
				fmt.Fprintf(out, "soak: chaos swap at %v — cohort rebuilt and published as generation %d in %v\n",
					elapsed, gen, time.Since(st0).Round(time.Millisecond))
				cfg.Sink.Emit("chaos", map[string]any{"event": "swap", "elapsed_ms": elapsed.Milliseconds(), "generation": gen,
					"rebuild_ms": time.Since(st0).Milliseconds(), "trace_id": resp.TraceID})
			case ChaosShed:
				curSvc().SetChaosShed(true)
				fmt.Fprintf(out, "soak: chaos shed storm at %v for %v\n", elapsed, stormLen)
				cfg.Sink.Emit("chaos", map[string]any{"event": "shed-on", "elapsed_ms": elapsed.Milliseconds()})
				time.Sleep(stormLen)
				curSvc().SetChaosShed(false)
				res.Storms++
				cfg.Sink.Emit("chaos", map[string]any{"event": "shed-off", "elapsed_ms": time.Since(replayStart).Milliseconds()})
			case ChaosRestart:
				rt0 := time.Now()
				stMu.Lock()
				svc.Close()
				fresh := &mapserve.Registry{}
				if _, _, err := fresh.LoadLatest(sdir, metrics); err != nil {
					fmt.Fprintf(out, "soak: warm restart failed (%v); keeping the old registry\n", err)
					svc = mapserve.New(reg, mapCfg)
					stMu.Unlock()
					continue
				}
				reg = fresh
				svc = mapserve.New(reg, mapCfg)
				stMu.Unlock()
				res.Restarts++
				fmt.Fprintf(out, "soak: chaos restart at %v — query tier killed and warm-restarted in %v\n",
					elapsed, time.Since(rt0).Round(time.Millisecond))
				cfg.Sink.Emit("chaos", map[string]any{"event": "restart", "elapsed_ms": elapsed.Milliseconds(),
					"restart_ms": time.Since(rt0).Milliseconds()})
			case ChaosBuildReject:
				builder.SetChaosRejectBuilds(true)
				fmt.Fprintf(out, "soak: chaos build outage at %v for %v\n", elapsed, stormLen)
				cfg.Sink.Emit("chaos", map[string]any{"event": "build-reject-on", "elapsed_ms": elapsed.Milliseconds()})
				if _, err := builder.Build(ctx, cohort); errors.Is(err, serve.ErrChaosReject) {
					res.Rejects++
				}
				time.Sleep(stormLen)
				builder.SetChaosRejectBuilds(false)
				cfg.Sink.Emit("chaos", map[string]any{"event": "build-reject-off", "elapsed_ms": time.Since(replayStart).Milliseconds()})
			}
		}
	}()

	// Replay: a dispatcher paces queries by the arrival curve; a bounded
	// worker pool executes them. Every issued query is accounted for —
	// mapped, shed, or failed — and the watchdog below turns any gap into
	// Result.Lost. Each query index is dispatched at most once, so a worker
	// owns outcomes[qi] without a lock.
	outcomes := make([]served, len(trace))
	jobs := make(chan int, cfg.Clients*2)
	var workers sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for qi := range jobs {
				q := trace[qi]
				stMu.RLock()
				resp, err := svc.Map(ctx, q.Read.Seq)
				stMu.RUnlock()
				outcome := "mapped"
				switch {
				case err == nil:
					atomic.AddInt64(&mapped, 1)
					outcomes[qi] = served{mapped: true, result: resp.Result, snapshotID: resp.SnapshotID, generation: resp.Generation}
				case errors.Is(err, mapserve.ErrOverloaded):
					atomic.AddInt64(&shed, 1)
					outcome = "shed"
				default:
					atomic.AddInt64(&failed, 1)
					outcome = "failed"
				}
				// Flight-log join key: shed and failed queries get a per-query
				// record carrying their trace_id, so any chaos incident in the
				// log is joinable against /traces?trace_id= on the flight
				// recorder. Mapped queries stay in the periodic samples only —
				// one JSONL line per success would dwarf the log.
				if outcome != "mapped" {
					var traceID uint64
					if resp != nil {
						traceID = resp.TraceID
					}
					cfg.Sink.Emit("query", map[string]any{
						"elapsed_ms": time.Since(replayStart).Milliseconds(),
						"query":      qi,
						"outcome":    outcome,
						"trace_id":   traceID,
						"err":        err.Error(),
					})
				}
			}
		}()
	}
dispatch:
	for qi, at := range arrivals {
		if at > cfg.Duration {
			break
		}
		select {
		case <-time.After(time.Until(replayStart.Add(at))):
		case <-ctx.Done():
			break dispatch
		}
		atomic.AddInt64(&issued, 1)
		jobs <- qi
	}
	close(jobs)

	// Watchdog: workers must drain within a generous grace period; anything
	// still unaccounted for is a lost query — the cardinal soak failure.
	drained := make(chan struct{})
	go func() { workers.Wait(); close(drained) }()
	workersDrained := false
	select {
	case <-drained:
		workersDrained = true
	case <-time.After(cfg.Duration + 30*time.Second):
		fmt.Fprintf(out, "soak: watchdog fired — workers did not drain\n")
	}
	curSvc().Close()
	closed = true
	close(stopSampler)
	bg.Wait()

	res.Wall = time.Since(replayStart)
	res.Issued = atomic.LoadInt64(&issued)
	res.Mapped = atomic.LoadInt64(&mapped)
	res.Shed = atomic.LoadInt64(&shed)
	res.Failed = atomic.LoadInt64(&failed)
	res.Lost = res.Issued - res.Mapped - res.Shed - res.Failed
	res.Generations = curReg().Generation()
	res.Metrics = metrics.Snapshot()

	// End-of-run assertions.
	chaosShed := res.Metrics.Counters["mapserve.shed_chaos"]
	res.Report.CheckLost(res.Lost)
	res.Report.Add("query-errors", res.Failed == 0,
		"%d queries failed with an error other than a shed", res.Failed)
	res.Report.CheckGaugeReturnsToZero(res.Metrics, "mapserve.queue_depth")
	res.Report.CheckGaugeWatermark(res.Metrics, "mapserve.queue_depth", int64(cfg.QueueDepth))
	res.Report.CheckShedRate(res.Issued, res.Shed, chaosShed, cfg.MaxShedRate)
	res.Report.CheckGoroutines(goroutineBase, 16)
	res.Report.CheckHeapGrowth(heapBase, 256<<20)
	chaosDone := res.Swaps + res.Restarts + res.Storms + res.Rejects
	res.Report.Add("chaos-complete", chaosDone == len(cfg.Chaos),
		"%d of %d chaos events completed", chaosDone, len(cfg.Chaos))
	// Repeated reads must map exactly as their originals did, across swaps
	// and restarts. Workers still running would race the comparison.
	if workersDrained {
		res.repeats = compareRepeats(trace, outcomes)
		res.repeats.report(&res.Report)
	} else {
		res.Report.Add("repeat-identical", false, "not compared: workers did not drain")
	}

	checks := make(map[string]any, len(res.Report.Checks))
	for _, c := range res.Report.Checks {
		checks[c.Name] = c.OK
	}
	cfg.Sink.Emit("report", map[string]any{
		"issued": res.Issued, "mapped": res.Mapped, "shed": res.Shed, "failed": res.Failed,
		"lost": res.Lost, "generations": res.Generations, "failed_checks": res.Report.Failed(),
		"checks": checks,
	})
	return res, nil
}

// planArrivals sizes and generates the scenario's arrival curve for a
// duration: enough offsets that the curve outlasts the run even through
// burst windows, without generating unbounded tails.
func planArrivals(sc gensim.Scenario, dur time.Duration, seed int64) ([]time.Duration, error) {
	probe := sc.ArrivalConfig(gensim.DefaultArrivalConfig(1))
	est := probe.BaseRate * dur.Seconds()
	if probe.Bursts > 0 {
		est += float64(probe.Bursts) * probe.BurstLen.Seconds() * (probe.BurstRate - probe.BaseRate)
	}
	n := int(est*1.3) + 256
	cfg := sc.ArrivalConfig(gensim.DefaultArrivalConfig(n))
	cfg.Seed = seed
	return gensim.Arrivals(cfg)
}
