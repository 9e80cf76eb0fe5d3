package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/serve"
	"pangenomicsbench/internal/store"
)

// mapServe replays a deterministic read-query trace against the map-serve
// query service: the serve-mode construction service builds the cohort
// graph, publishes it as a mapserve snapshot, and — mid-trace — an
// equivalent rebuild hot-swaps in while clients keep querying. Reports
// throughput, exact tail latency and shed rates, and verifies that repeated
// (byte-identical) reads mapped identically across the swap.
func mapServe(args []string) error {
	fs := newFlagSet("map-serve")
	pf := addPopFlags(fs, 20_000, 5)
	queries := fs.Int("queries", 512, "queries in the trace")
	clients := fs.Int("clients", 8, "concurrent query clients")
	readLen := fs.Int("read-len", 150, "query read length (bp)")
	repeat := fs.Float64("repeat", 0.2, "fraction of queries re-issuing an earlier read byte-for-byte")
	workers := fs.Int("workers", 0, "mapping worker slots (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 1024, "admission queue depth")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none)")
	toolName := fs.String("tool", "giraffe", "mapping tool: giraffe, vgmap, graphaligner or minigraph-lr")
	swapAt := fs.Int("swap-at", -2, "query index triggering the mid-trace rebuild+hot-swap (-2 = midpoint, -1 = never)")
	storePath := fs.String("store", "", "snapshot store directory: persist generations, WAL-journal builds, warm-start from the last published generation")
	restartAt := fs.Int("restart-at", -1, "query index at which the query tier is killed and warm-restarted from -store (-1 = never)")
	scenarioName := addScenarioFlag(fs, "baseline")
	of := addObsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc, err := gensim.LookupScenario(*scenarioName)
	if err != nil {
		return err
	}
	toolCfg := mapserve.DefaultToolConfig(mapserve.ToolKind(*toolName))
	switch toolCfg.Kind {
	case mapserve.ToolGiraffe, mapserve.ToolVgMap, mapserve.ToolGraphAligner, mapserve.ToolMinigraphLR:
	default:
		return fmt.Errorf("unknown tool %q (want giraffe, vgmap, graphaligner or minigraph-lr)", *toolName)
	}
	if *swapAt == -2 {
		*swapAt = *queries / 2
	}
	if *restartAt >= 0 && *storePath == "" {
		return fmt.Errorf("-restart-at needs -store: a warm restart reloads the last persisted generation")
	}

	pop, err := pf.simulateWith(sc)
	if err != nil {
		return err
	}
	trace, err := pop.ReadQueryTrace(sc.ReadTraceConfig(gensim.ReadTraceConfig{
		Queries:    *queries,
		Clients:    *clients,
		ReadLen:    *readLen,
		SubRate:    0.002,
		IndelRate:  0.0001,
		RepeatRate: *repeat,
		Seed:       *pf.seed,
	}))
	if err != nil {
		return err
	}
	// The scenario reshaper may raise the client count (skewed-tenant floors
	// it at 8); every client ID in the trace needs a replaying goroutine.
	nclients := *clients
	for _, q := range trace {
		if q.Client+1 > nclients {
			nclients = q.Client + 1
		}
	}

	// Build-then-serve handoff: the serve-mode construction service builds
	// the full-catalog cohort; its OnResult hook publishes each finished
	// graph into the query registry as a fresh snapshot generation — and,
	// with -store, persists it as a store generation too. reg and svc sit
	// behind stMu so a -restart-at warm restart can swap both mid-trace.
	metrics := perf.NewMetrics()
	tracer := obs.NewTracer(obs.TracerConfig{Metrics: metrics})
	var stMu sync.RWMutex
	reg := &mapserve.Registry{}
	var svc *mapserve.Service
	curReg := func() *mapserve.Registry { stMu.RLock(); defer stMu.RUnlock(); return reg }

	var sdir *store.Dir
	var journal *serve.Journal
	var persister *mapserve.Persister
	if *storePath != "" {
		var err error
		if sdir, err = store.Open(*storePath, store.Options{}); err != nil {
			return err
		}
		persister = mapserve.NewPersister(sdir, metrics)
		if journal, err = serve.OpenJournal(filepath.Join(*storePath, "serve.wal"), metrics); err != nil {
			return err
		}
		defer journal.Close()
	}

	names, seqs := pop.AssemblyView()
	var snapSeq uint64
	var publishErr error
	var publishMu sync.Mutex
	builder := serve.New(serve.Config{
		CacheCapacity: 64 << 20,
		Metrics:       metrics,
		Tracer:        tracer,
		Journal:       journal,
		OnResult: func(req serve.Request, res *build.Result) {
			n := atomic.AddUint64(&snapSeq, 1)
			snap, err := mapserve.SnapshotFromBuild(fmt.Sprintf("cohort-%d", n), res, toolCfg)
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
		return err
	}
	cohort := serve.Request{Tool: serve.ToolPGGB, Cohort: names, PGGB: build.DefaultPGGBConfig(), MC: build.DefaultMCConfig()}

	fmt.Printf("map-serve: %d assemblies (%d bp ref), scenario=%s, tool=%s, %d queries, %d clients, queue=%d\n",
		len(names), *pf.refLen, sc.Name, toolCfg.Kind, len(trace), nclients, *queueDepth)

	// Boot: warm-start from the store's last published generation when one
	// exists (construction skipped entirely), cold-build otherwise. Either
	// way, crash-interrupted journal requests are then replayed.
	t0 := time.Now()
	warm := false
	if sdir != nil {
		snap, storeGen, err := reg.LoadLatest(sdir, metrics)
		switch {
		case err == nil:
			warm = true
			fmt.Printf("warm start: loaded snapshot %q from store generation %d in %v — construction skipped\n",
				snap.ID, storeGen, time.Since(t0).Round(time.Millisecond))
		case errors.Is(err, store.ErrEmpty):
			// First boot against this store: fall through to the cold build.
		default:
			return fmt.Errorf("warm start from %s: %w", *storePath, err)
		}
	}
	if !warm {
		if _, err := builder.Build(context.Background(), cohort); err != nil {
			return fmt.Errorf("initial cohort build: %w", err)
		}
		fmt.Printf("cohort built and published as generation %d in %v\n", reg.Generation(), time.Since(t0).Round(time.Millisecond))
	}
	if journal != nil {
		if n, err := builder.Recover(context.Background()); err != nil {
			return err
		} else if n > 0 {
			fmt.Printf("journal replay: re-ran %d crash-interrupted build request(s)\n", n)
		}
	}
	publishMu.Lock()
	perr := publishErr
	publishMu.Unlock()
	if perr != nil {
		return fmt.Errorf("snapshot publish: %w", perr)
	}
	fmt.Println()

	mapCfg := mapserve.Config{
		Workers:    *workers,
		QueueDepth: *queueDepth,
		Metrics:    metrics,
		Tracer:     tracer,
	}
	svc = mapserve.New(reg, mapCfg)
	defer func() { stMu.RLock(); s := svc; stMu.RUnlock(); s.Close() }()
	stopObs, err := of.start(obs.ServerConfig{
		Metrics:   metrics.Snapshot,
		Recorder:  tracer.Recorder(),
		Snapshots: func() []obs.SnapshotInfo { return curReg().Stats() },
	})
	if err != nil {
		return err
	}
	defer stopObs()

	// Warm restart: kill the query tier mid-trace and boot a replacement
	// registry+service from the store — no construction runs. Clients hold
	// stMu.RLock across each Map, so the swap waits out in-flight queries
	// and no query ever fails from the restart itself.
	restart := func(at int64) {
		stMu.Lock()
		defer stMu.Unlock()
		rt0 := time.Now()
		svc.Close()
		fresh := &mapserve.Registry{}
		_, storeGen, err := fresh.LoadLatest(sdir, metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "warm restart at query %d failed (%v); keeping the old registry\n", at, err)
			svc = mapserve.New(reg, mapCfg)
			return
		}
		reg = fresh
		svc = mapserve.New(reg, mapCfg)
		fmt.Printf("warm restart at query %d: killed the query tier, reloaded store generation %d in %v (no rebuild)\n",
			at, storeGen, time.Since(rt0).Round(time.Millisecond))
	}

	// Replay: each trace client drains its own query stream in issue order;
	// crossing the swap index triggers an equivalent cohort rebuild whose
	// publication hot-swaps mid-traffic.
	type outcome struct {
		resp *mapserve.Response
		err  error
		gen  uint64
	}
	results := make([]outcome, len(trace))
	latencies := make([]time.Duration, 0, len(trace))
	var latMu sync.Mutex
	var issued int64
	var swapWG sync.WaitGroup
	var wg sync.WaitGroup
	replayStart := time.Now()
	for c := 0; c < nclients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range trace {
				if q.Client != c {
					continue
				}
				n := atomic.AddInt64(&issued, 1)
				if *swapAt >= 0 && n == int64(*swapAt) {
					swapWG.Add(1)
					go func() {
						defer swapWG.Done()
						if _, err := builder.Build(context.Background(), cohort); err != nil {
							fmt.Fprintf(os.Stderr, "mid-trace rebuild: %v\n", err)
						}
					}()
				}
				if *restartAt >= 0 && n == int64(*restartAt) {
					restart(n)
				}
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if *timeout > 0 {
					ctx, cancel = context.WithTimeout(ctx, *timeout)
				}
				t0 := time.Now()
				stMu.RLock()
				resp, err := svc.Map(ctx, q.Read.Seq)
				stMu.RUnlock()
				lat := time.Since(t0)
				cancel()
				results[i] = outcome{resp: resp, err: err}
				if resp != nil {
					results[i].gen = resp.Generation
				}
				latMu.Lock()
				latencies = append(latencies, lat)
				latMu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	swapWG.Wait()
	wall := time.Since(replayStart)

	// Repeat queries pin the hot-swap determinism contract: a re-issued read
	// must map identically even when the two executions straddled a swap.
	repeats, mismatches, crossGen := 0, 0, 0
	var failures int
	for i, q := range trace {
		if results[i].err != nil {
			failures++
			continue
		}
		if q.Repeat < 0 || results[q.Repeat].err != nil {
			continue
		}
		repeats++
		if results[i].gen != results[q.Repeat].gen {
			crossGen++
		}
		if results[i].resp.Result != results[q.Repeat].resp.Result {
			mismatches++
			fmt.Fprintf(os.Stderr, "query %d (repeat of %d): %+v != %+v\n",
				i, q.Repeat, results[i].resp.Result, results[q.Repeat].resp.Result)
		}
	}

	fmt.Printf("replayed %d queries in %v (%.0f q/s), %d failed/shed\n",
		len(trace), wall.Round(time.Millisecond), float64(len(trace)-failures)/wall.Seconds(), failures)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
			latencies[n/2].Round(time.Microsecond),
			latencies[n*90/100].Round(time.Microsecond),
			latencies[n*99/100].Round(time.Microsecond),
			latencies[n-1].Round(time.Microsecond))
	}
	fmt.Printf("snapshot generations published: %d (current gen %d)\n", atomic.LoadUint64(&snapSeq), reg.Generation())
	fmt.Printf("repeat queries: %d verified, %d spanned a hot-swap, %d mismatched\n", repeats, crossGen, mismatches)

	snap := metrics.Snapshot()
	shed := snap.Counters["mapserve.shed_queue"] + snap.Counters["mapserve.shed_deadline"]
	fmt.Printf("shed: %d queue, %d deadline (%.1f%% of trace)\n",
		snap.Counters["mapserve.shed_queue"], snap.Counters["mapserve.shed_deadline"],
		100*float64(shed)/float64(len(trace)))
	fmt.Println("\nservice metrics:")
	fmt.Print(snap.Render())
	printSlowest(tracer, 3)
	if mismatches > 0 {
		return fmt.Errorf("%d repeated reads changed mapping across snapshots", mismatches)
	}
	return nil
}
