package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/soak"
)

// soakCmd replays a catalog scenario against the full build-then-serve stack
// for a configured duration, injecting chaos mid-run, and exits non-zero if
// any end-of-run assertion (lost queries, gauge watermarks, leak checks)
// fails.
func soakCmd(args []string) error {
	fs := newFlagSet("soak")
	pf := addPopFlags(fs, 20_000, 5)
	scenarioName := addScenarioFlag(fs, "skewed-tenant")
	dur := fs.Duration("dur", 10*time.Second, "soak duration")
	chaosCSV := fs.String("chaos", "swap,restart", "comma-separated chaos events fired at even fractions of -dur: swap, shed, restart, build-reject, worker-kill")
	fleetNodes := fs.Int("fleet", 0, "route the build tier through an in-process construction fleet of N workers (worker-kill chaos needs ≥ 2)")
	clients := fs.Int("clients", 8, "concurrent query clients")
	workers := fs.Int("workers", 0, "mapping worker slots (0 = GOMAXPROCS)")
	queueDepth := fs.Int("queue", 256, "admission queue depth")
	toolName := fs.String("tool", "giraffe", "mapping tool: giraffe, vgmap, graphaligner or minigraph-lr")
	storePath := fs.String("store", "", "snapshot store directory (a temp dir is created when -chaos includes restart and -store is empty)")
	jsonlPath := fs.String("jsonl", "", "structured flight-log file (JSONL: periodic samples, chaos events, final report)")
	maxShed := fs.Float64("max-shed", 0.05, "organic shed-rate ceiling asserted at run end (chaos-storm sheds excluded)")
	sampleEvery := fs.Int("sample-every", 8, "flight-recorder ring keeps 1 in N traces (failed/shed traces always kept)")
	of := addObsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sc, err := gensim.LookupScenario(*scenarioName)
	if err != nil {
		return err
	}
	chaos, err := soak.ParseChaos(*chaosCSV)
	if err != nil {
		return err
	}
	toolCfg := mapserve.DefaultToolConfig(mapserve.ToolKind(*toolName))
	switch toolCfg.Kind {
	case mapserve.ToolGiraffe, mapserve.ToolVgMap, mapserve.ToolGraphAligner, mapserve.ToolMinigraphLR:
	default:
		return fmt.Errorf("unknown tool %q (want giraffe, vgmap, graphaligner or minigraph-lr)", *toolName)
	}

	// A warm restart needs somewhere to reload from; conjure a scratch store
	// when the user asked for restart chaos without naming one.
	needStore := false
	for _, k := range chaos {
		if k == soak.ChaosRestart {
			needStore = true
		}
	}
	if needStore && *storePath == "" {
		tmp, err := os.MkdirTemp("", "pgbench-soak-store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		*storePath = tmp
		fmt.Printf("restart chaos requested without -store: using scratch store %s\n", tmp)
	}

	var sink *obs.JSONLSink
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sink = obs.NewJSONLSink(f)
	}

	// Metrics and tracer live out here so -obs can expose the run live.
	metrics := perf.NewMetrics()
	tracer := obs.NewTracer(obs.TracerConfig{
		Capacity:       512,
		Metrics:        metrics,
		SampleEvery:    *sampleEvery,
		ExemplarMaxAge: time.Minute,
	})
	stopObs, err := of.start(obs.ServerConfig{
		Metrics:  metrics.Snapshot,
		Recorder: tracer.Recorder(),
	})
	if err != nil {
		return err
	}
	defer stopObs()

	fmt.Printf("soak: scenario %s for %v, chaos=%v, tool=%s, %d clients, queue=%d\n",
		sc.Name, *dur, chaos, toolCfg.Kind, *clients, *queueDepth)
	if sc.Summary != "" {
		fmt.Printf("  %s\n", sc.Summary)
	}
	fmt.Println()

	res, err := soak.Run(context.Background(), soak.Config{
		Scenario:    sc,
		RefLen:      *pf.refLen,
		Haps:        *pf.haps,
		Seed:        *pf.seed,
		Duration:    *dur,
		Clients:     *clients,
		Tool:        toolCfg,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		Chaos:       chaos,
		FleetNodes:  *fleetNodes,
		StoreDir:    *storePath,
		Sink:        sink,
		MaxShedRate: *maxShed,
		Metrics:     metrics,
		Tracer:      tracer,
		Out:         os.Stdout,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nreplayed for %v: issued %d, mapped %d, shed %d, failed %d, lost %d\n",
		res.Wall.Round(time.Millisecond), res.Issued, res.Mapped, res.Shed, res.Failed, res.Lost)
	fmt.Printf("chaos: %d swaps, %d restarts, %d shed storms, %d build-reject windows, %d worker kills; %d snapshot generation(s) live\n",
		res.Swaps, res.Restarts, res.Storms, res.Rejects, res.Kills, res.Generations)
	fmt.Println()
	fmt.Print(res.Report.Render())
	printSlowest(tracer, 3)
	if n := res.Report.Failed(); n > 0 {
		return fmt.Errorf("%d soak assertion(s) failed", n)
	}
	return nil
}
