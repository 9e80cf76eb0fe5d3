package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/fleet"
	"pangenomicsbench/internal/gfa"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
)

// fleetWorkerCmd runs one fleet worker daemon: a pair cache behind the
// pair-match wire protocol, serving until SIGINT/SIGTERM.
func fleetWorkerCmd(args []string) error {
	fs := newFlagSet("fleet-worker")
	listen := fs.String("listen", "127.0.0.1:9471", "worker RPC listen address")
	name := fs.String("name", "", "worker name reported in heartbeats (default: the listen address)")
	cacheMB := fs.Int("cache-mb", 32, "pair cache capacity (MiB)")
	of := addObsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wname := *name
	if wname == "" {
		wname = *listen
	}
	// Every worker carries its own metric set and tracer: the metrics feed
	// GET /metrics on the RPC listener (the coordinator's federation scrape)
	// and the tracer's span trees ride back on match responses, so the
	// coordinator can graft them into one cross-process trace per build.
	metrics := perf.NewMetrics()
	tracer := obs.NewTracer(obs.TracerConfig{Metrics: metrics})
	w := fleet.NewWorker(wname, *cacheMB<<20)
	w.SetObs(metrics, tracer)
	srv := fleet.NewWorkerServer(w)
	addr, err := srv.Start(*listen)
	if err != nil {
		return err
	}
	stopObs, err := of.start(obs.ServerConfig{
		Metrics:  metrics.Snapshot,
		Recorder: tracer.Recorder(),
	})
	if err != nil {
		_ = srv.Close()
		return err
	}
	defer stopObs()
	fmt.Printf("fleet-worker %s: serving pair-match RPCs on %s (cache %d MiB)\n", wname, addr, *cacheMB)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("fleet-worker: shutting down")
	return srv.Close()
}

// fleetFromSpec builds a running coordinator from a node spec: "local:N"
// spins N in-process loopback workers; anything else is a comma-separated
// list of fleet-worker daemon addresses.
func fleetFromSpec(spec string, metrics *perf.Metrics, tracer *obs.Tracer) (*fleet.Coordinator, error) {
	coord := fleet.NewCoordinator(fleet.Config{Metrics: metrics})
	if n, ok := strings.CutPrefix(spec, "local:"); ok {
		count, err := strconv.Atoi(n)
		if err != nil || count < 1 {
			coord.Close()
			return nil, fmt.Errorf("bad fleet spec %q (want local:N with N ≥ 1)", spec)
		}
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("local-%02d", i)
			w := fleet.NewWorker(name, 0)
			// Loopback workers get their own metric set (so federation shows
			// distinct node series) but share the driver's tracer — their
			// match spans land in the same flight recorder the -obs endpoint
			// serves, exactly as remote worker spans do after grafting.
			w.SetObs(perf.NewMetrics(), tracer)
			if err := coord.AddNode(name, fleet.NewLocalNode(w, 0)); err != nil {
				coord.Close()
				return nil, err
			}
		}
		return coord, nil
	}
	added := 0
	for _, addr := range strings.Split(spec, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := coord.AddNode(addr, fleet.Dial(addr)); err != nil {
			coord.Close()
			return nil, err
		}
		added++
	}
	if added == 0 {
		coord.Close()
		return nil, fmt.Errorf("empty fleet spec %q (want local:N or addr,addr,...)", spec)
	}
	return coord, nil
}

// fleetCmd is the fleet differential driver: it builds the same cohort once
// single-process and once sharded across the fleet, and fails unless the
// two GFA serializations are byte-identical.
func fleetCmd(args []string) error {
	fs := newFlagSet("fleet")
	pf := addPopFlags(fs, 20_000, 6)
	nodes := fs.String("nodes", "", "comma-separated fleet-worker daemon addresses")
	local := fs.Int("local", 0, "spin up N in-process loopback workers instead of -nodes")
	linger := fs.Duration("linger", 0, "keep the process (and -obs endpoint) alive this long after the build, for scraping")
	of := addObsFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := *nodes
	if *local > 0 {
		if spec != "" {
			return fmt.Errorf("fleet: -nodes and -local are mutually exclusive")
		}
		spec = fmt.Sprintf("local:%d", *local)
	}
	if spec == "" {
		return fmt.Errorf("fleet: need -nodes or -local")
	}

	pop, err := pf.simulate()
	if err != nil {
		return err
	}
	names, seqs := pop.AssemblyView()
	metrics := perf.NewMetrics()
	tracer := obs.NewTracer(obs.TracerConfig{Metrics: metrics})
	coord, err := fleetFromSpec(spec, metrics, tracer)
	if err != nil {
		return err
	}
	defer coord.Close()
	if err := coord.RegisterAssemblies(names, seqs); err != nil {
		return err
	}
	stopObs, err := of.start(obs.ServerConfig{
		Metrics:        metrics.Snapshot,
		Recorder:       tracer.Recorder(),
		Fleet:          coord.NodeInfos,
		FederatedNodes: coord.FederatedNodes,
	})
	if err != nil {
		return err
	}
	defer stopObs()

	infos := coord.NodeInfos()
	fmt.Printf("fleet: %d assemblies (%d bp ref) over %d node(s):\n", len(names), *pf.refLen, len(infos))
	for _, info := range infos {
		state := "live"
		if !info.Live {
			state = "DEAD"
		}
		fmt.Printf("  %-16s %-4s range %s", info.Name, state, info.Range)
		if info.Addr != "" {
			fmt.Printf("  @ %s", info.Addr)
		}
		fmt.Println()
	}

	cfg := build.DefaultPGGBConfig()
	ctx := context.Background()

	t0 := time.Now()
	direct, err := build.PGGB(ctx, names, seqs, cfg, nil)
	if err != nil {
		return fmt.Errorf("single-process build: %w", err)
	}
	singleWall := time.Since(t0)

	// The fleet build runs under one root span: dispatch spans become its
	// children and every remote worker's span tree is grafted in, so the
	// -obs /traces endpoint shows a single cross-process tree for the build.
	bs := tracer.StartRoot("fleet.build")
	bs.SetInt("assemblies", int64(len(names)))
	bctx := obs.ContextWithSpan(ctx, bs)
	t1 := time.Now()
	blocks, stats, hits, err := coord.AllPairMatches(bctx, names, cfg.K, cfg.W)
	if err != nil {
		bs.Error(err)
		bs.End()
		return fmt.Errorf("fleet pair matching: %w", err)
	}
	fleetRes, err := build.PGGBFromMatches(bctx, names, seqs, blocks, stats, cfg, nil)
	if err != nil {
		bs.Error(err)
		bs.End()
		return fmt.Errorf("fleet graph induction: %w", err)
	}
	bs.End()
	fleetWall := time.Since(t1)

	var want, got bytes.Buffer
	if err := gfa.Write(&want, direct.Graph); err != nil {
		return err
	}
	if err := gfa.Write(&got, fleetRes.Graph); err != nil {
		return err
	}
	pairs := len(names) * (len(names) - 1) / 2
	fmt.Printf("\nsingle-process build: %v; fleet build: %v (%d pair tasks, %d shard-cache hits)\n",
		singleWall.Round(time.Millisecond), fleetWall.Round(time.Millisecond), pairs, hits)
	snap := metrics.Snapshot()
	fmt.Printf("fleet counters: tasks=%d reassigned=%d remote_hits=%d remote_misses=%d pushes=%d deaths=%d\n",
		snap.Counters["fleet.tasks"], snap.Counters["fleet.reassigned"],
		snap.Counters["fleet.remote_hits"], snap.Counters["fleet.remote_misses"],
		snap.Counters["fleet.push"], snap.Counters["fleet.deaths"])
	fmt.Printf("fleet build trace: %s\n", bs.TraceID())
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		return fmt.Errorf("fleet GFA differs from single-process GFA (%d vs %d bytes) — determinism contract broken",
			got.Len(), want.Len())
	}
	fmt.Printf("fleet GFA is byte-identical to the single-process build (%d bytes)\n", want.Len())
	if *linger > 0 {
		fmt.Printf("lingering %v for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}
