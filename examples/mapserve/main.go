// Mapserve: the build-then-serve handoff end to end. The serve-mode
// construction service builds a cohort graph and its OnResult hook publishes
// the finished graph into a mapserve snapshot registry; the query
// service maps reads against the current snapshot; a cohort rebuild then
// hot-swaps a new generation in while queries keep flowing — in-flight
// queries finish on the old snapshot, new ones land on the new, and
// identical reads map identically on both.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/serve"
)

func main() {
	// A small simulated assembly catalog.
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 12_000
	cfg.Haplotypes = 4
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	names, seqs := pop.AssemblyView()

	// Construction side: the serve-mode builder publishes every finished
	// cohort graph into the query registry as a new snapshot generation.
	reg := &mapserve.Registry{OnRetire: func(s *mapserve.Snapshot) {
		fmt.Printf("  [registry] generation %d retired (last query released it)\n", s.Generation)
	}}
	toolCfg := mapserve.DefaultToolConfig(mapserve.ToolGiraffe)
	var snapN int
	var mu sync.Mutex
	builder := serve.New(serve.Config{
		CacheCapacity: 32 << 20,
		OnResult: func(req serve.Request, res *build.Result) {
			mu.Lock()
			snapN++
			id := fmt.Sprintf("cohort-%d", snapN)
			mu.Unlock()
			snap, err := mapserve.SnapshotFromBuild(id, res, toolCfg)
			if err != nil {
				log.Fatal(err)
			}
			gen, err := reg.Publish(snap)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  [registry] published %s as generation %d (%d graph nodes)\n",
				id, gen, res.Graph.NumNodes())
		},
	})
	if err := builder.RegisterAssemblies(names, seqs); err != nil {
		log.Fatal(err)
	}
	cohort := serve.Request{
		Tool: serve.ToolPGGB, Cohort: names,
		PGGB: build.DefaultPGGBConfig(), MC: build.DefaultMCConfig(),
	}

	fmt.Println("building initial cohort graph...")
	if _, err := builder.Build(context.Background(), cohort); err != nil {
		log.Fatal(err)
	}

	// Query side: the executor over the registry.
	metrics := perf.NewMetrics()
	svc := mapserve.New(reg, mapserve.Config{Workers: 4, Metrics: metrics})
	defer svc.Close()

	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: 32, Length: 150, SubRate: 0.002, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	mapAll := func(label string) []mapserve.Response {
		out := make([]mapserve.Response, len(reads))
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := range reads {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := svc.Map(context.Background(), reads[i].Seq)
				if err != nil {
					log.Fatalf("%s read %d: %v", label, i, err)
				}
				out[i] = *resp
			}(i)
		}
		wg.Wait()
		mapped := 0
		for _, r := range out {
			if r.Result.Mapped {
				mapped++
			}
		}
		fmt.Printf("%s: %d/%d reads mapped on generation %d in %v\n",
			label, mapped, len(reads), out[0].Generation, time.Since(t0).Round(time.Millisecond))
		return out
	}

	fmt.Println("\nquerying generation 1...")
	before := mapAll("gen-1 queries")

	// Hot-swap: rebuild the same cohort (an equivalent graph) and publish it
	// while queries run; the old generation retires once its queries drain.
	fmt.Println("\nrebuilding cohort and hot-swapping mid-traffic...")
	var qwg sync.WaitGroup
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		mapAll("concurrent queries")
	}()
	if _, err := builder.Build(context.Background(), cohort); err != nil {
		log.Fatal(err)
	}
	qwg.Wait()

	fmt.Println("\nquerying generation 2...")
	after := mapAll("gen-2 queries")

	same := 0
	for i := range reads {
		if before[i].Result == after[i].Result {
			same++
		}
	}
	fmt.Printf("\ndeterminism across the swap: %d/%d identical reads mapped identically\n", same, len(reads))

	snap := metrics.Snapshot()
	fmt.Printf("served: %d queries, mean queue wait %v, mean map time %v\n",
		snap.Counters["mapserve.mapped"],
		snap.Latencies["mapserve.queue_wait"].Mean().Round(time.Microsecond),
		snap.Latencies["mapserve.map"].Mean().Round(time.Microsecond))
}
