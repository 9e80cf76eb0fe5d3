package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"pangenomicsbench/internal/build"
	"pangenomicsbench/internal/fleet"
	"pangenomicsbench/internal/gensim"
	"pangenomicsbench/internal/gfa"
	"pangenomicsbench/internal/graph"
	"pangenomicsbench/internal/mapserve"
	"pangenomicsbench/internal/perf"
	"pangenomicsbench/internal/serve"
)

// buildStages are the four construction stages of a build.StageBreakdown.
var buildStages = []string{"alignment", "induction", "polishing", "layout"}

// maxReferenceBuilds caps the distinct cohorts verify rebuilds directly: a
// reference build costs as much as the op it checks, and the check runs on
// every run. Every build is still checked against earlier builds of the
// same cohort.
const maxReferenceBuilds = 6

// buildTenants is the number of tenants of a build trace.
const buildTenants = 16

// buildServe is the build_pggb / build_mc instance: one client replaying a
// multi-tenant cohort trace against serve.Service, whose OnResult hook
// publishes every result as a query snapshot, so an op ends when the
// cohort is queryable.
type buildServe struct {
	tool   serve.Tool
	svc    *serve.Service
	reg    *mapserve.Registry
	trace  []gensim.TraceRequest
	names  []string
	seqs   [][]byte
	seqOf  map[string][]byte
	pggb   build.PGGBConfig
	mc     build.MCConfig
	genS   float64
	pubErr error

	// publish is the duration of the last OnResult bridge; one client, and
	// OnResult runs on the caller's goroutine, so no lock.
	publish time.Duration
	// seen maps a cohort (ordered names) to the GFA hash of its first build.
	seen     map[string][32]byte
	order    []string // distinct cohorts in first-build order
	pairHits int
	pairMiss int
}

func setupBuild(tool serve.Tool, refLen int) func(params) (instance, error) {
	return func(p params) (instance, error) {
		refLen := refLen
		if p.smoke {
			refLen = 2_000
		}
		b := &buildServe{tool: tool, reg: &mapserve.Registry{},
			seqOf: map[string][]byte{}, seen: map[string][32]byte{},
			pggb: build.DefaultPGGBConfig(), mc: build.DefaultMCConfig()}
		// One 10-assembly population per tenant. A build's cost follows its
		// population's content (92–123 ms for PGGB across seeds at equal
		// length and variant count), so a single population makes every
		// metric a property of the seed; the op mix over several averages
		// that out while each tenant keeps its overlapping-cohort reuse.
		t0 := time.Now()
		traces := make([][]gensim.TraceRequest, buildTenants)
		for t := range traces {
			cfg := gensim.DefaultConfig()
			cfg.RefLen, cfg.Haplotypes, cfg.Seed = refLen, 10, p.seed*buildTenants+int64(t)
			// At this length the default SVRate gives 0–3 structural variants
			// per population depending on the seed alone, and one 500 bp
			// insertion moves a build's POA time by a third: a lottery, not
			// SV coverage.
			cfg.SVRate = 0
			pop, err := gensim.Simulate(cfg)
			if err != nil {
				return nil, err
			}
			// Longer than any run consumes, so the timed phase never wraps
			// into an all-warm pair cache.
			tr, err := pop.Trace(gensim.TraceConfig{Tenants: 1, Requests: 2048 / buildTenants,
				CohortMin: 4, CohortMax: 4, Drift: 0.25, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			tenant := func(name string) string { return fmt.Sprintf("t%d.%s", t, name) }
			for i := range tr {
				for j, n := range tr[i].Cohort {
					tr[i].Cohort[j] = tenant(n)
				}
			}
			traces[t] = tr
			names, seqs := pop.AssemblyView()
			for i, n := range names {
				b.names, b.seqs = append(b.names, tenant(n)), append(b.seqs, seqs[i])
				b.seqOf[tenant(n)] = seqs[i]
			}
		}
		for i := 0; i < len(traces[0]); i++ { // tenants take turns
			for t := range traces {
				b.trace = append(b.trace, traces[t][i])
			}
		}
		b.genS = time.Since(t0).Seconds()
		b.svc = serve.New(serve.Config{OnResult: b.onResult})
		if err := b.svc.RegisterAssemblies(b.names, b.seqs); err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ { // warm-up
			if err := b.op(0, len(b.trace)-1-i, nil); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
}

// onResult is the build-then-serve bridge: wrap the finished graph as a
// Giraffe snapshot and hot-swap it into the query registry (no disk).
func (b *buildServe) onResult(_ serve.Request, res *build.Result) {
	t0 := time.Now()
	snap, err := mapserve.SnapshotFromBuild("cohort", res, mapserve.DefaultToolConfig(mapserve.ToolGiraffe))
	if err == nil {
		_, err = b.reg.Publish(snap)
	}
	if err != nil {
		b.pubErr = err
	}
	b.publish = time.Since(t0)
}

func (b *buildServe) request(cohort []string) serve.Request {
	return serve.Request{Tool: b.tool, Cohort: cohort, PGGB: b.pggb, MC: b.mc}
}

func gfaHash(g *graph.Graph) ([32]byte, error) {
	h := sha256.New()
	if err := gfa.Write(h, g); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum, nil
}

func (b *buildServe) op(_, i int, t *opTrace) error {
	cohort := b.trace[i%len(b.trace)].Cohort
	var m0, b0 uint64
	if t != nil {
		m0, b0 = mallocs()
	}
	t0 := time.Now()
	resp, err := b.svc.Build(context.Background(), b.request(cohort))
	lat := time.Since(t0)
	if err == nil {
		err = b.pubErr
	}
	if err != nil {
		return err
	}
	b.pairHits += resp.PairHits
	b.pairMiss += resp.PairMisses
	if t != nil {
		m1, b1 := mallocs()
		b.traceBuild(t, t0, lat, resp, int64(m1-m0), int64(b1-b0))
	}
	// Output check, between ops: repeated cohorts must serialise to the
	// same GFA; verify compares first builds against direct pipeline runs.
	sum, err := gfaHash(resp.Result.Graph)
	if err != nil {
		return err
	}
	key := strings.Join(cohort, ",")
	if first, ok := b.seen[key]; !ok {
		b.seen[key] = sum
		b.order = append(b.order, key)
	} else if first != sum {
		return fmt.Errorf("cohort %s built to a different GFA than its first build", key)
	}
	return nil
}

// traceBuild records one build request: queue wait and execution from the
// response, the four construction stages from the result's breakdown with
// their nested kernels, and the publish bridge timed in onResult.
func (b *buildServe) traceBuild(t *opTrace, t0 time.Time, lat time.Duration, resp *serve.Response, allocs, bytes int64) {
	pre := "build." + string(b.tool) + "."
	root := t.add(0, "serve.build", t0, lat)
	t.count(root, "pair_hits", int64(resp.PairHits))
	t.count(root, "pair_misses", int64(resp.PairMisses))
	t.count(root, "allocs", allocs)
	t.count(root, "alloc_bytes", bytes)
	t.add(root, "serve.queue_wait", t0, resp.QueueWait)
	execStart := t0.Add(resp.QueueWait)
	exec := t.add(root, "serve.exec", execStart, resp.Exec)
	t.add(root, "serve.publish", execStart.Add(resp.Exec), b.publish)

	// Each pipeline nests one kernel per stage it times separately: PGGB
	// the transclosure inside induction and POA inside polishing, MC GWFA
	// inside alignment and POA inside induction.
	bd := resp.Result.Breakdown
	type kernel struct {
		name string
		d    time.Duration
	}
	nested := map[string]kernel{"induction": {"tc", bd.TCTime}, "polishing": {"poa", bd.POATime}}
	if b.tool == serve.ToolMC {
		nested = map[string]kernel{"alignment": {"gwfa", bd.GWFA}, "induction": {"poa", bd.POATime}}
	}
	at := execStart
	for i, d := range []time.Duration{bd.Alignment, bd.Induction, bd.Polishing, bd.Layout} {
		id := t.add(exec, pre+buildStages[i], at, d)
		if k, ok := nested[buildStages[i]]; ok && k.d > 0 {
			t.add(id, pre+k.name, at, k.d)
		}
		at = at.Add(d)
	}
}

// verify rebuilds the first distinct cohorts with the pipeline directly and
// compares GFA hashes with what the service returned for them.
func (b *buildServe) verify() (int, error) {
	wrong := 0
	for i, key := range b.order {
		if i == maxReferenceBuilds {
			break
		}
		names := strings.Split(key, ",")
		seqs := make([][]byte, len(names))
		for j, n := range names {
			seqs[j] = b.seqOf[n]
		}
		var res *build.Result
		var err error
		if b.tool == serve.ToolPGGB {
			res, err = build.PGGB(context.Background(), names, seqs, b.pggb, nil)
		} else {
			res, err = build.MinigraphCactus(context.Background(), names, seqs, b.mc, nil)
		}
		if err != nil {
			return wrong, err
		}
		sum, err := gfaHash(res.Graph)
		if err != nil {
			return wrong, err
		}
		if sum != b.seen[key] {
			fmt.Printf("# cohort %s: served GFA differs from the direct %s build\n", key, b.tool)
			wrong++
		}
	}
	return wrong, nil
}

func (b *buildServe) close() {}

func (b *buildServe) layers(ts *traceSet, budget time.Duration, out map[string]float64) error {
	out["gensim.generate_s"] = b.genS
	pre := "build." + string(b.tool) + "."
	builds := float64(len(ts.ops))
	if builds == 0 {
		return fmt.Errorf("traced phase completed no build")
	}
	for _, n := range append([]string{"tc", "poa", "gwfa"}, buildStages...) {
		out[pre+n+"_ms"] = ts.totalMs(pre+n) / builds
	}
	out[pre+"allocs_per_build"] = mean(ts.counts("serve.build", "allocs"))
	out[pre+"alloc_mb_per_build"] = mean(ts.counts("serve.build", "alloc_bytes")) / 1e6
	stages := 0.0
	for _, n := range buildStages {
		stages += ts.totalMs(pre + n)
	}
	out[pre+"stage_coverage_share"] = stages / ts.totalMs("serve.exec")

	out["serve.queue_wait_p50_ms"] = median(ts.durationsMs("serve.queue_wait"))
	out["serve.exec_p50_ms"] = median(ts.durationsMs("serve.exec"))
	out["serve.publish_ms"] = median(ts.durationsMs("serve.publish"))
	// What wait, exec and publish leave uncovered of a request's latency.
	out["serve.overhead_p50_ms"] = median(ts.selfMs("serve.build"))
	var cold, warm []float64
	for _, op := range ts.ops {
		root := op[0]
		switch {
		case root.Counts["pair_misses"] > 0:
			cold = append(cold, float64(root.dur())/1e6)
		case root.Counts["pair_hits"] > 0:
			warm = append(warm, float64(root.dur())/1e6)
		}
	}
	out["serve.cold_build_p50_ms"] = median(cold)
	out["serve.warm_build_p50_ms"] = median(warm)
	if n := b.pairHits + b.pairMiss; n > 0 {
		out["serve.pair_hit_share"] = float64(b.pairHits) / float64(n)
	}
	_, resident := b.svc.CacheResident()
	out["serve.cache_resident_mb"] = float64(resident) / 1e6
	if b.tool != serve.ToolPGGB {
		return nil
	}
	return b.fleetCounts(out)
}

// fleetCounts replays the first 8 requests of two tenants (tenants share no
// pairs, so fewer requests per tenant would find nothing cached) through a
// 2-node loopback fleet and reports counts only: two cores cannot support
// a wall-clock scaling claim, but the counts bound what a fleet could save.
func (b *buildServe) fleetCounts(out map[string]float64) error {
	metrics := perf.NewMetrics()
	coord := fleet.NewCoordinator(fleet.Config{Metrics: metrics})
	defer coord.Close()
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("local-%02d", i)
		if err := coord.AddNode(name, fleet.NewLocalNode(fleet.NewWorker(name, 0), 0)); err != nil {
			return err
		}
	}
	svc := serve.New(serve.Config{Fleet: coord})
	if err := svc.RegisterAssemblies(b.names, b.seqs); err != nil {
		return err
	}
	for i := 0; i < 8*buildTenants; i++ {
		if i%buildTenants >= 2 {
			continue
		}
		resp, err := svc.Build(context.Background(), b.request(b.trace[i].Cohort))
		if err != nil {
			return err
		}
		sum, err := gfaHash(resp.Result.Graph)
		if err != nil {
			return err
		}
		if first, ok := b.seen[strings.Join(b.trace[i].Cohort, ",")]; ok && first != sum {
			return fmt.Errorf("fleet build of request %d differs from the local build", i)
		}
	}
	snap := metrics.Snapshot()
	out["fleet.tasks"] = float64(snap.Counters["fleet.tasks"])
	if n := snap.Counters["fleet.remote_hits"] + snap.Counters["fleet.remote_misses"]; n > 0 {
		out["fleet.remote_hit_share"] = float64(snap.Counters["fleet.remote_hits"]) / float64(n)
	}
	out["fleet.shard_imbalance"] = float64(snap.Gauges["fleet.shard_imbalance_milli"].Value) / 1e3
	return nil
}
