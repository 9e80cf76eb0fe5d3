// Obs: the observability substrate end to end. A traced build-then-serve
// stack — the serve-mode builder publishes a cohort graph into a mapserve
// registry, the query service maps a read burst against it — runs
// with the obs admin server attached, then scrapes its own endpoints
// (/healthz, /metrics, /snapshots, /traces) over HTTP and prints the
// slowest query's span tree.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/obs"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/serve"
)

func main() {
	// A small simulated catalog and the traced build/query stack: one metric
	// set and one tracer shared by both tiers, so /metrics and /traces see
	// the whole request path.
	cfg := gensim.DefaultConfig()
	cfg.RefLen = 10_000
	cfg.Haplotypes = 3
	pop, err := gensim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	names, seqs := pop.AssemblyView()

	metrics := perf.NewMetrics()
	tracer := obs.NewTracer(obs.TracerConfig{Metrics: metrics})
	reg := &mapserve.Registry{}
	toolCfg := mapserve.DefaultToolConfig(mapserve.ToolGiraffe)
	builder := serve.New(serve.Config{
		Metrics: metrics,
		Tracer:  tracer,
		OnResult: func(req serve.Request, res *build.Result) {
			snap, err := mapserve.SnapshotFromBuild("cohort", res, toolCfg)
			if err == nil {
				_, err = reg.Publish(snap)
			}
			if err != nil {
				log.Fatal(err)
			}
		},
	})
	if err := builder.RegisterAssemblies(names, seqs); err != nil {
		log.Fatal(err)
	}

	// The admin server, bound to an ephemeral port.
	srv := obs.NewServer(obs.ServerConfig{
		Metrics:   metrics.Snapshot,
		Recorder:  tracer.Recorder(),
		Snapshots: reg.Stats,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("admin endpoint on http://%s/\n\n", addr)

	// One traced build, then a concurrent query burst.
	fmt.Println("building cohort graph...")
	if _, err := builder.Build(context.Background(), serve.Request{
		Tool: serve.ToolPGGB, Cohort: names, PGGB: build.DefaultPGGBConfig(),
	}); err != nil {
		log.Fatal(err)
	}
	reads, err := pop.SimulateReads(gensim.ReadConfig{Count: 24, Length: 150, SubRate: 0.002, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	svc := mapserve.New(reg, mapserve.Config{
		Workers: 2, Metrics: metrics, Tracer: tracer,
	})
	defer svc.Close()
	fmt.Printf("mapping %d reads...\n\n", len(reads))
	var wg sync.WaitGroup
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := svc.Map(context.Background(), reads[i].Seq); err != nil {
				log.Fatalf("read %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// Scrape our own endpoints the way an operator (or Prometheus) would.
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: %s", path, resp.Status)
		}
		return string(body)
	}

	fmt.Printf("GET /healthz → %s", get("/healthz"))

	promLines := strings.Split(strings.TrimSpace(get("/metrics")), "\n")
	series := 0
	for _, line := range promLines {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	fmt.Printf("GET /metrics → %d series, e.g.:\n", series)
	for _, line := range promLines {
		if strings.HasPrefix(line, "mapserve_mapped_total") ||
			strings.HasPrefix(line, "mapserve_queue_wait_seconds_count") ||
			strings.HasPrefix(line, "serve_requests_total") {
			fmt.Println("  " + line)
		}
	}

	fmt.Printf("\nGET /snapshots →\n%s\n", get("/snapshots"))
	fmt.Printf("GET /traces?which=slow&n=1 →\n\n")

	// The slowest query's span tree, straight from the flight recorder.
	for _, d := range tracer.Recorder().Slowest(3) {
		if d.Name != "mapserve.query" {
			continue
		}
		fmt.Println(d.Tree())
		break
	}
}
