// Command pgbench runs the PangenomicsBench-Go experiment harness: every
// table and figure of the paper has a driver that regenerates it on the
// synthetic datasets (see DESIGN.md for the experiment index).
//
// Usage:
//
//	pgbench list
//	pgbench run [-scale small|bench|large] [-threads N] [-scenario S] <experiment>...
//	pgbench all [-scale small|bench|large] [-threads N] [-scenario S]
//	pgbench serve-sim [flags]
//	pgbench soak [-scenario S] [-dur D] [-chaos LIST] [flags]
//	pgbench fleet-worker [-listen ADDR]
//	pgbench fleet [-nodes ADDRS | -local N]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/core"
	"pangenomicsbench/internal/fleet"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pgbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "list":
		fmt.Println("experiments:")
		for _, id := range core.Experiments() {
			fmt.Println("  " + id)
		}
		fmt.Println("\nscenarios (run/all/serve-sim/soak -scenario):")
		for _, sc := range gensim.Scenarios() {
			fmt.Println("  " + sc.Describe())
		}
		return nil
	case "run", "all":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		scaleName := fs.String("scale", "bench", "dataset scale: small, bench, or large")
		threads := fs.Int("threads", 0, "worker threads for parallel stages (0 = all cores); results are identical for any value")
		scenarioName := addScenarioFlag(fs, "baseline")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		if *threads > 0 {
			// The parallel stages (all-vs-all matching, MC chunk mapping)
			// size their pools from GOMAXPROCS, so this bounds all of them.
			runtime.GOMAXPROCS(*threads)
		}
		scale, err := parseScale(*scaleName)
		if err != nil {
			return err
		}
		ids := fs.Args()
		if cmd == "all" {
			ids = core.Experiments()
		}
		if len(ids) == 0 {
			return fmt.Errorf("no experiments named (try: pgbench list)")
		}
		sc, err := gensim.LookupScenario(*scenarioName)
		if err != nil {
			return err
		}
		fmt.Printf("building %s-scale suite (scenario %s)...\n", *scaleName, sc.Name)
		t0 := time.Now()
		suite, err := core.NewScenarioSuite(scale, sc)
		if err != nil {
			return err
		}
		fmt.Printf("suite ready in %v (%d graph nodes, %d short reads, %d long reads)\n\n",
			time.Since(t0).Round(time.Millisecond),
			suite.Pop.Graph.NumNodes(), len(suite.ShortReads), len(suite.LongReads))
		for _, id := range ids {
			t0 := time.Now()
			tbl, err := suite.Run(id)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", id, err)
			}
			fmt.Print(tbl.Render())
			fmt.Printf("(%s in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
		}
		return nil
	case "gen":
		fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
		scaleName := fs.String("scale", "bench", "dataset scale: small, bench, or large")
		dir := fs.String("out", "datasets", "output directory")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		scale, err := parseScale(*scaleName)
		if err != nil {
			return err
		}
		suite, err := core.NewSuite(scale)
		if err != nil {
			return err
		}
		files, err := suite.ExportDatasets(*dir)
		if err != nil {
			return err
		}
		for _, f := range files {
			fmt.Printf("wrote %s/%s\n", *dir, f)
		}
		return nil
	case "serve-sim":
		return serveSim(rest)
	case "soak":
		return soakCmd(rest)
	case "fleet":
		return fleetCmd(rest)
	case "fleet-worker":
		return fleetWorkerCmd(rest)
	case "help", "-h", "--help":
		usage()
		return nil
	}
	usage()
	return fmt.Errorf("unknown command %q", cmd)
}

func parseScale(s string) (core.Scale, error) {
	switch s {
	case "small":
		return core.Small, nil
	case "bench":
		return core.Bench, nil
	case "large":
		return core.Large, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want small, bench, or large)", s)
}

// serveSim replays a synthetic multi-tenant build-request trace against the
// serve-mode construction service and reports throughput and cache reuse.
func serveSim(args []string) error {
	fs := newFlagSet("serve-sim")
	pf := addPopFlags(fs, 20_000, 10)
	tenants := fs.Int("tenants", 4, "simulated tenants")
	requests := fs.Int("requests", 24, "requests in the trace")
	cohortMin := fs.Int("cohort-min", 3, "minimum cohort size")
	cohortMax := fs.Int("cohort-max", 5, "maximum cohort size")
	conc := fs.Int("conc", 4, "concurrent clients replaying the trace")
	workers := fs.Int("workers", 0, "build worker slots (0 = GOMAXPROCS)")
	cacheMB := fs.Int("cache-mb", 64, "pair-match cache capacity (MiB)")
	timeout := fs.Duration("timeout", 0, "per-request timeout (0 = none)")
	toolName := fs.String("tool", "pggb", "construction tool: pggb or mc")
	storePath := fs.String("store", "", "journal directory: accepted builds are WAL-logged and crash-interrupted ones replayed on restart")
	profileSlow := fs.Duration("profile-slow", 0, "capture a CPU profile of builds slower than this into -store (0 = off; requires -store)")
	fleetSpec := fs.String("fleet-nodes", "", "route pair matching through a construction fleet: local:N or comma-separated fleet-worker addresses")
	scenarioName := addScenarioFlag(fs, "baseline")
	of := addObsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	tool := serve.Tool(*toolName)
	if tool != serve.ToolPGGB && tool != serve.ToolMC {
		return fmt.Errorf("unknown tool %q (want pggb or mc)", *toolName)
	}
	sc, err := gensim.LookupScenario(*scenarioName)
	if err != nil {
		return err
	}

	pop, err := pf.simulateWith(sc)
	if err != nil {
		return err
	}
	names, seqs := pop.AssemblyView()
	trace, err := pop.Trace(sc.TraceConfig(gensim.TraceConfig{
		Tenants:   *tenants,
		Requests:  *requests,
		CohortMin: *cohortMin,
		CohortMax: *cohortMax,
		Drift:     0.25,
		Seed:      *pf.seed,
	}))
	if err != nil {
		return err
	}

	metrics := perf.NewMetrics()
	tracer := obs.NewTracer(obs.TracerConfig{Metrics: metrics})
	var journal *serve.Journal
	if *storePath != "" {
		if err := os.MkdirAll(*storePath, 0o755); err != nil {
			return err
		}
		journal, err = serve.OpenJournal(filepath.Join(*storePath, "serve.wal"), metrics)
		if err != nil {
			return err
		}
		defer journal.Close()
	}
	var coord *fleet.Coordinator
	if *fleetSpec != "" {
		if coord, err = fleetFromSpec(*fleetSpec, metrics, tracer); err != nil {
			return err
		}
		defer coord.Close()
	}
	var profiler *obs.Profiler
	if *profileSlow > 0 {
		if *storePath == "" {
			return fmt.Errorf("-profile-slow needs -store to hold the captured profiles")
		}
		profiler = &obs.Profiler{Dir: *storePath, Threshold: *profileSlow}
		fmt.Printf("profiling builds slower than %v into %s (cpu-<trace_id>.pprof)\n", *profileSlow, *storePath)
	}
	svc := serve.New(serve.Config{
		Workers:        *workers,
		CacheCapacity:  *cacheMB << 20,
		DefaultTimeout: *timeout,
		Metrics:        metrics,
		Tracer:         tracer,
		Journal:        journal,
		Fleet:          coord,
		Profiler:       profiler,
	})
	if err := svc.RegisterAssemblies(names, seqs); err != nil {
		return err
	}
	if journal != nil {
		if n, err := svc.Recover(context.Background()); err != nil {
			return err
		} else if n > 0 {
			fmt.Printf("journal replay: re-ran %d crash-interrupted build request(s)\n", n)
		}
	}
	obsCfg := obs.ServerConfig{
		Metrics:  metrics.Snapshot,
		Recorder: tracer.Recorder(),
	}
	if coord != nil {
		obsCfg.Fleet = coord.NodeInfos
		obsCfg.FederatedNodes = coord.FederatedNodes
	}
	stopObs, err := of.start(obsCfg)
	if err != nil {
		return err
	}
	defer stopObs()

	pcfg := build.DefaultPGGBConfig()
	mcfg := build.DefaultMCConfig()
	fmt.Printf("serve-sim: %d assemblies (%d bp ref), %d tenants, %d requests, %d clients, tool=%s\n",
		len(names), *pf.refLen, *tenants, len(trace), *conc, tool)
	if coord != nil {
		fmt.Printf("pair matching sharded over a %d-node fleet (%s)\n", len(coord.NodeInfos()), *fleetSpec)
	}
	fmt.Println()

	// Replay: conc clients drain the trace in issue order.
	var next int
	var mu sync.Mutex
	var failures int
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < *conc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(trace) {
					return
				}
				req := serve.Request{Tool: tool, Cohort: trace[i].Cohort, PGGB: pcfg, MC: mcfg}
				if _, err := svc.Build(context.Background(), req); err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "request %d (tenant %d): %v\n", i, trace[i].Tenant, err)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	hits, misses, evictions := svc.CacheCounters()
	entries, bytes := svc.CacheResident()
	fmt.Printf("replayed %d requests in %v (%.1f req/s), %d failed\n",
		len(trace), wall.Round(time.Millisecond),
		float64(len(trace))/wall.Seconds(), failures)
	if hits+misses > 0 {
		fmt.Printf("pair cache: %d hits / %d misses (%.0f%% hit rate), %d evictions, %d entries (%d B) resident\n",
			hits, misses, 100*float64(hits)/float64(hits+misses), evictions, entries, bytes)
	}
	fmt.Println("\nservice metrics:")
	fmt.Print(metrics.Snapshot().Render())
	printSlowest(tracer, 3)
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pgbench list                                 list experiment IDs and scenarios
  pgbench run [-scale S] [-threads N] <experiment>...  run named experiments
  pgbench all [-scale S] [-threads N]          run every experiment
                                               (-threads bounds the parallel
                                               stages; output is identical
                                               for any value; -scenario reshapes
                                               the workload adversarially)
  pgbench gen [-scale S] [-out DIR]            export datasets (FASTA/FASTQ/GFA)
  pgbench serve-sim [flags]                    replay a multi-tenant build trace
                                               against the serve-mode service
  pgbench soak [flags]                         replay a scenario against the full
                                               build-then-serve stack for -dur,
                                               injecting -chaos events (swap, shed,
                                               restart, build-reject,
                                               worker-kill); exits non-zero if
                                               any end-of-run assertion fails,
                                               including a repeated read that
                                               mapped differently
  pgbench fleet-worker [-listen ADDR]          run one construction-fleet worker
                                               daemon (pair-match RPCs over HTTP)
  pgbench fleet [-nodes ADDRS | -local N]      shard an all-pair build across
                                               fleet workers and verify the GFA
                                               is byte-identical to the
                                               single-process build
scales: small (quick check), bench (default), large`)
}
